#!/usr/bin/env python3
"""Pipeline benchmark for mtgender: every CLI stage end to end, every module traced.

Run from the repository root:

    python3 perfbench/run.py --workload otsc-mock --seed 1 --seconds 35 --trace 0

``--trace 0`` runs the workload's CLI stages (``python -m mtgender ...``) as
child processes, round after round, for ``--seconds``, and reports the
end-to-end metrics as medians over the rounds. ``--trace 1`` measures the
interpreter start-up, runs one untraced round of child processes, and then
runs the same stages in-process through ``mtgender.cli.run``, alternating
rounds with and without spans around each module's public functions (see
``tracing.py``); it reports the per-layer metrics and the tracing overhead
and writes every span to ``.perfbench_work/traces/``. ``--smoke`` shrinks
the inputs so the benchmark's own checks run in seconds.

Every round is checked against ground truth the benchmark derives from the
seed (``workloads.py``): report counts and metrics, the failed items of the
translate stage, and byte-identical reports across the rounds of a run. The
last line of standard output is one JSON object with ``correct``,
``attempted`` (stage commands run), ``failed`` (stage commands that exited
with an unexpected code) and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from spawner import CHILD_TIMEOUT_S
from stub import StubStats
from tracing import Tracer, traced
from workloads import (
    FULL_SIZES,
    HTTP_CONCURRENCY,
    PREPARE,
    SMOKE_SIZES,
    WORKLOADS,
    Prepared,
    Stage,
    mismatches,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUPS = 3  # set-up is repeated and its median reported
MIN_ROUNDS = 2  # two rounds at least, so report bytes can be compared
STARTUP_SAMPLES = 5

END_TO_END = {
    "setup_s": "s",
    "pipeline_s": "s",
    "translate_s": "s",
    "translate_items_per_s": "1/s",
    "resume_s": "s",
    "evaluate_s": "s",
    "peak_rss_mb": "MB",
    "ok_share": "ratio",
}
PER_LAYER = {
    "cli.startup_s": "s",
    "cli.stage_self_s": "s",
    "fileio.read_jsonl.s": "s",
    "corpus.read_sentences.s": "s",
    "corpus.read_sentences.us_per_record": "us",
    "backends.translate_batch.s": "s",
    "backends.read_translations.s": "s",
    "backends.write_translations.s": "s",
    "classify.classify_batch.s": "s",
    "classify.us_per_item": "us",
    "classify.chars": "count",
    "metrics.compute.s": "s",
    "tables.format.s": "s",
    "manifest.digest.s": "s",
    "manifest.bytes_digested": "bytes",
    "backends.http.requests": "count",
    "backends.http.connections": "count",
    "backends.http.retries": "count",
    "backends.http.status_429": "count",
    "backends.http.in_flight_max": "count",
    "backends.http.ok_per_attempt": "ratio",
    "backends.http.busy_share": "ratio",
    "backends.http.stub_calibration_rps": "1/s",
    "trace.off_s": "s",
    "trace.on_s": "s",
    "trace.overhead_share": "ratio",
}


@dataclass
class StageResult:
    stage: Stage
    wall_s: float
    code: int
    rss_kb: int = 0
    stderr: str = ""
    stub: StubStats | None = None


@dataclass
class Round:
    stages: list[StageResult] = field(default_factory=list)
    wall_s: float = 0.0
    problems: list[str] = field(default_factory=list)
    reports: dict[Path, bytes] = field(default_factory=dict)
    fresh_counts: dict = field(default_factory=dict)

    def total(self, kind: str) -> float:
        return sum(r.wall_s for r in self.stages if r.stage.kind == kind)

    def first(self, kind: str) -> StageResult | None:
        return next((r for r in self.stages if r.stage.kind == kind), None)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Spawner:
    """Runs child processes, one at a time, through spawner.py (see there why)."""

    def __init__(self) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("spawner.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT,
        )

    def run(self, argv: list[str], log: Path) -> tuple[float, int, int, str]:
        """Wall seconds, exit code, the child's own peak RSS (KiB) and its stderr."""
        self._proc.stdin.write(json.dumps({"argv": argv, "stderr": str(log)}) + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("the spawner process exited")
        reply = json.loads(line)
        stderr = log.read_text(encoding="utf-8", errors="replace")
        return reply["wall_s"], reply["code"], reply["rss_kb"], stderr

    def close(self) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=CHILD_TIMEOUT_S + 10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()


def subprocess_executor(prep: Prepared, spawner: Spawner):
    def execute(stage: Stage) -> StageResult:
        wall, code, rss, stderr = spawner.run(
            [sys.executable, "-m", "mtgender", *stage.argv], prep.directory / "stage.err")
        return StageResult(stage, wall, code, rss, stderr)

    return execute


def inprocess_executor():
    from mtgender import cli

    def execute(stage: Stage) -> StageResult:
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            code = cli.run(list(stage.argv))
            wall = time.perf_counter() - start
        return StageResult(stage, wall, code)

    return execute


def _sidecar_counts(path: Path) -> dict:
    return json.loads(Path(str(path) + ".manifest.json").read_text(encoding="utf-8"))["counts"]


def _failed_translations(path: Path) -> dict[str, str]:
    failed = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            if record.get("status") == "failed":
                failed[record["source_id"]] = record.get("reason", "")
    return failed


def run_round(prep: Prepared, execute) -> Round:
    """Run every stage once, then check the outputs against ground truth."""
    rnd = Round()
    if prep.stub is not None:
        prep.stub.reset_attempts()
        prep.stub.take_stats()
    failed: dict[str, str] = {}
    start = time.perf_counter()
    for stage in prep.stages:
        result = execute(stage)
        if prep.stub is not None:
            result.stub = prep.stub.take_stats()
        rnd.stages.append(result)
        if result.code not in stage.ok_codes:
            tail = result.stderr.strip().splitlines()[-3:]
            rnd.problems.append(f"{stage.kind} exited {result.code}: {' / '.join(tail)}")
            break
        if stage.kind == "translate":
            rnd.fresh_counts = _sidecar_counts(prep.translations)
            if rnd.fresh_counts.get("translated_failed"):
                failed = _failed_translations(prep.translations)
    rnd.wall_s = time.perf_counter() - start
    if not rnd.problems:
        rnd.problems += check_round(prep, rnd, failed)
    return rnd


def check_round(prep: Prepared, rnd: Round, failed: dict[str, str]) -> list[str]:
    problems = []
    fresh = rnd.fresh_counts
    if fresh.get("sources") != prep.items or fresh.get("translated_failed") != len(failed):
        problems.append(f"translate counts {fresh} for {prep.items} items")
    # a failure is allowed only where the stub planned a first-attempt 429
    for source_id, reason in failed.items():
        if source_id not in prep.fault_ids or "429" not in reason:
            problems.append(f"translate: {source_id} failed unexpectedly ({reason})")
            break
    resumed = _sidecar_counts(prep.translations)
    if resumed.get("translated_failed") != 0 or resumed.get("reused") != prep.items - len(failed):
        problems.append(f"resume counts {resumed}")
    for path, expected in prep.expected_reports.items():
        raw = path.read_bytes()
        rnd.reports[path] = raw
        payload = json.loads(raw)
        actual = {"counts": payload.get("counts"), "metrics": payload.get("metrics")}
        problems += [f"{path.name}{m}" for m in mismatches(expected, actual)[:5]]
    table = prep.directory / "table.txt"
    if not table.exists() or not table.read_text(encoding="utf-8").strip():
        problems.append("report stage wrote no table")
    return problems


def check_determinism(rounds: list[Round]) -> list[str]:
    first = rounds[0].reports
    return [
        f"{path.name} differs between rounds 1 and {k}"
        for k, rnd in enumerate(rounds[1:], start=2)
        for path, raw in rnd.reports.items()
        if first.get(path) != raw
    ]


def setup(name: str, seed: int, size: int, run_dir: Path) -> tuple[Prepared, list[float]]:
    """Set the workload up SETUPS times; keep the last, return all set-up times."""
    times = []
    prep = None
    for k in range(SETUPS):
        if prep is not None:
            prep.close()
            shutil.rmtree(prep.directory)
        directory = run_dir / f"setup{k}"
        start = time.perf_counter()
        directory.mkdir(parents=True)
        prep = PREPARE[name](directory, seed, size)
        times.append(time.perf_counter() - start)
    return prep, times


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def describe(name: str, values: list[float], unit: str) -> None:
    """Median and range of one metric over the samples of this run.

    With fewer than 20 samples no percentile above the median has ten samples
    beyond it, so the maximum stands in for it."""
    if not values:
        return
    print(f"  {name:36s} median {median(values):12.6g} {unit:5s} "
          f"min {min(values):10.6g}  max {max(values):10.6g}  (n={len(values)})")


def keep_going(started: float, seconds: float, done: int, least: int, per_item: list[float]) -> bool:
    """Another round fits when its median duration still ends within the budget."""
    if done < least:
        return True
    return time.perf_counter() - started + median(per_item) <= seconds


# --------------------------------------------------------------------------
# --trace 0: end-to-end metrics


def measure_end_to_end(prep: Prepared, spawner: Spawner, seconds: float,
                       setup_times: list[float]):
    execute = subprocess_executor(prep, spawner)
    rounds: list[Round] = []
    started = time.perf_counter()
    while keep_going(started, seconds, len(rounds), MIN_ROUNDS, [r.wall_s for r in rounds]):
        rnd = run_round(prep, execute)
        rounds.append(rnd)
        if rnd.problems:
            break

    samples = {
        "setup_s": setup_times,
        "pipeline_s": [r.wall_s for r in rounds],
        "translate_s": [r.total("translate") for r in rounds],
        "translate_items_per_s": [prep.items / r.total("translate") for r in rounds],
        "resume_s": [r.total("resume") for r in rounds],
        "evaluate_s": [r.total("evaluate") for r in rounds],
        "peak_rss_mb": [max(s.rss_kb for s in r.stages) / 1024 for r in rounds],
        "ok_share": [r.fresh_counts.get("translated_ok", 0) / prep.items for r in rounds],
    }
    print(f"{prep.name}: {prep.items} items, {len(rounds)} rounds of "
          + " ".join(f"{r.wall_s:.3f}" for r in rounds) + " s")
    for name, unit in END_TO_END.items():
        describe(name, samples[name], unit)
    for kind in ("generate", "report"):
        if any(r.first(kind) for r in rounds):
            describe(f"{kind}_s (not gated)", [r.total(kind) for r in rounds], "s")
    for kind in dict.fromkeys(s.kind for s in prep.stages):
        describe(f"rss_mb.{kind}", [max((s.rss_kb for s in r.stages if s.stage.kind == kind),
                                        default=0) / 1024 for r in rounds], "MB")
    if prep.stub is not None:
        print(f"  stub calibration: {prep.calibration_rps:.0f} requests/s at zero delay")

    problems = [p for r in rounds for p in r.problems] + check_determinism(rounds)
    metrics = {name: median(samples[name]) for name in END_TO_END}
    metrics["translate_items_per_s"] = prep.items / metrics["translate_s"]
    return rounds, problems, metrics


# --------------------------------------------------------------------------
# --trace 1: per-layer metrics


def measure_layers(prep: Prepared, spawner: Spawner, seconds: float, trace_file: Path):
    started = time.perf_counter()
    startup = [
        spawner.run([sys.executable, "-c", "import mtgender.cli"], prep.directory / "startup.err")[0]
        for _ in range(STARTUP_SAMPLES)
    ]
    untraced = run_round(prep, subprocess_executor(prep, spawner))
    rounds = [untraced]

    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    execute = inprocess_executor()
    tracer = Tracer()
    off: list[float] = []
    on: list[float] = []
    traced_runs: list[str] = []
    while not untraced.problems and keep_going(
        started, seconds, len(on), 1, [a + b for a, b in zip(off, on)]
    ):
        rnd = run_round(prep, execute)
        rounds.append(rnd)
        off.append(rnd.wall_s)
        tracer.run = f"{prep.name}-r{len(on) + 1}"
        with traced(tracer):
            rnd = run_round(prep, execute)
        rounds.append(rnd)
        on.append(rnd.wall_s)
        traced_runs.append(tracer.run)
        if any(r.problems for r in rounds):
            break

    summaries = [tracer.summary(run) for run in traced_runs]

    def layer(name: str, key: str = "s") -> list[float]:
        return [s.get(name, {}).get(key, 0) for s in summaries]

    def per_unit(name: str, unit_key: str, scale: float = 1e6) -> list[float]:
        return [scale * s[name]["s"] / s[name][unit_key] if s.get(name, {}).get(unit_key) else 0.0
                for s in summaries]

    # time the stage functions spend outside every traced layer; interpreter
    # start-up is cli.startup_s, measured on its own
    stage_self = [sum(v["self_s"] for k, v in s.items() if k.startswith("cli.")) for s in summaries]
    fresh = untraced.first("translate")
    http = fresh.stub if fresh is not None and fresh.stub is not None else StubStats()
    translate_wall = fresh.wall_s if fresh is not None else 0.0
    samples = {
        "cli.startup_s": startup,
        "cli.stage_self_s": stage_self,
        "fileio.read_jsonl.s": layer("fileio.read_jsonl"),
        "corpus.read_sentences.s": layer("corpus.read_sentences"),
        "corpus.read_sentences.us_per_record": per_unit("corpus.read_sentences", "records"),
        "backends.translate_batch.s": layer("backends.translate_batch"),
        "backends.read_translations.s": layer("backends.read_translations"),
        "backends.write_translations.s": layer("backends.write_translations"),
        "classify.classify_batch.s": layer("classify.classify_batch"),
        "classify.us_per_item": per_unit("classify.classify_batch", "items"),
        "classify.chars": layer("classify.classify_batch", "chars"),
        "metrics.compute.s": layer("metrics.compute"),
        "tables.format.s": layer("tables.format"),
        "manifest.digest.s": layer("manifest.digest"),
        "manifest.bytes_digested": layer("manifest.digest", "bytes"),
        "backends.http.requests": [http.requests],
        "backends.http.connections": [http.connections],
        "backends.http.retries": [http.retries],
        "backends.http.status_429": [http.status_429],
        "backends.http.in_flight_max": [http.in_flight_max],
        "backends.http.ok_per_attempt": [http.ok_per_attempt],
        "backends.http.busy_share": [http.busy_share(translate_wall, HTTP_CONCURRENCY)
                                     if http.requests else 0.0],
        "backends.http.stub_calibration_rps": [prep.calibration_rps],
        "trace.off_s": off,
        "trace.on_s": on,
        "trace.overhead_share": [median(on) / median(off) - 1] if off else [],
    }
    print(f"{prep.name}: {prep.items} items, traced rounds {len(on)}, untraced in-process {len(off)}")
    for name, unit in PER_LAYER.items():
        describe(name, samples[name], unit)
    # layers only some workloads run: printed here, not gated
    for name in ("templates.expand_otsc", "corpus.write_sentences", "backends.load_replay_map"):
        describe(f"{name}.s", [s[name]["s"] for s in summaries if name in s], "s")
    if http.requests:
        describe("backends.http.service_p50_ms", [http.service_ms(50)], "ms")
        describe("backends.http.service_p99_ms", [http.service_ms(99)], "ms")
    if summaries:
        print("  self time by span, over the traced rounds:")
        for name in sorted(summaries[0]):
            describe(f"  {name}.self_s", layer(name, "self_s"), "s")

    trace_file.parent.mkdir(parents=True, exist_ok=True)
    trace_file.write_text(json.dumps({
        "workload": prep.name,
        "spans": tracer.dump(),
        "stub": {"requests": http.requests, "connections": http.connections,
                 "status_429": http.status_429, "status_503": http.status_503,
                 "service_s": http.service_s},
    }) + "\n", encoding="utf-8")
    print(f"  spans written to {trace_file.relative_to(ROOT)}")

    problems = [p for r in rounds for p in r.problems] + check_determinism(rounds)
    metrics = {name: median(samples[name]) for name in PER_LAYER}
    return rounds, problems, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="small inputs, for quick checks")
    args = parser.parse_args(argv)

    if not (SRC / "mtgender" / "cli.py").is_file():
        print(f"error: no program to measure: {SRC / 'mtgender'} is missing", file=sys.stderr)
        return 2
    size = (SMOKE_SIZES if args.smoke else FULL_SIZES)[args.workload]
    run_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    trace_file = WORK / "traces" / f"{args.workload}-seed{args.seed}.json"

    spawner = Spawner()
    prep = None
    try:
        # compile the program's bytecode once, outside every timed region
        run_dir.mkdir(parents=True)
        _, code, _, stderr = spawner.run([sys.executable, "-c", "import mtgender.cli"],
                                         run_dir / "warmup.err")
        if code != 0:
            print(f"error: cannot import the program: {stderr.strip()}", file=sys.stderr)
            return 2
        prep, setup_times = setup(args.workload, args.seed, size, run_dir)
        if args.trace:
            rounds, problems, metrics = measure_layers(prep, spawner, args.seconds, trace_file)
        else:
            rounds, problems, metrics = measure_end_to_end(prep, spawner, args.seconds,
                                                           setup_times)
    finally:
        spawner.close()
        if prep is not None:
            prep.close()
        shutil.rmtree(run_dir, ignore_errors=True)

    for problem in problems[:20]:
        print(f"check failed: {problem}")
    attempted = sum(len(r.stages) for r in rounds)
    failed = sum(1 for r in rounds for s in r.stages if s.code not in s.stage.ok_codes)
    units = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }), flush=True)
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
