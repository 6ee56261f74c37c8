"""Starts the program's child processes on behalf of the benchmark.

On Linux a child's peak RSS (``ru_maxrss``) starts from the peak of the
process it was forked from, so children forked straight from the benchmark,
which grows while it builds inputs and runs stages in-process, would all
report at least the benchmark's own peak. This helper is started first,
while small, and forks every child itself; ``os.wait4`` then gives the
rusage of that one child.

Protocol: one JSON request per line on stdin, ``{"argv": [...], "stderr":
path}``; one JSON reply per line on stdout, ``{"wall_s", "code", "rss_kb"}``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time

CHILD_TIMEOUT_S = 150  # a child running longer is killed


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(request["argv"], stdout=subprocess.DEVNULL, stderr=err)
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"wall_s": wall, "code": proc.returncode, "rss_kb": usage.ru_maxrss}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
