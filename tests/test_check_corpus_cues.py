"""scripts/check_corpus_cues.py run as a program: a clean corpus passes, and
each bad input ends in one error line naming its file, exit 1."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mtgender.resources import data_path

ROOT = Path(__file__).resolve().parent.parent


def check(*args):
    env = {**os.environ, "PYTHONIOENCODING": "utf-8", "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, str(ROOT / "scripts" / "check_corpus_cues.py"),
                           *map(str, args)], capture_output=True, encoding="utf-8", env=env)


def test_the_bundled_sample_passes():
    result = check(data_path("winomt_sample.jsonl"), "--fail-on-warn")
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "20 records checked, 0 warnings"


@pytest.mark.parametrize("kind", ["missing-corpus", "record-without-text", "overlapping-cues"])
def test_a_bad_input_ends_in_one_error_line(tmp_path, kind):
    corpus, cues = tmp_path / "corpus.jsonl", tmp_path / "cues.json"
    record = json.loads(data_path("winomt_sample.jsonl").read_text(encoding="utf-8")
                        .splitlines()[0])
    if kind == "record-without-text":
        del record["text"]
    if kind != "missing-corpus":
        corpus.write_text(json.dumps(record, ensure_ascii=False) + "\n", encoding="utf-8")
    cues.write_text(json.dumps({"male_cues": ["करता"], "female_cues": ["करता"]}),
                    encoding="utf-8")
    args = [corpus, "--cues", cues] if kind == "overlapping-cues" else [corpus]
    result = check(*args)
    expected = {
        "missing-corpus": f"{corpus}: No such file or directory",
        "record-without-text": f"{corpus}: line 1: record {record['id']!r}: missing field 'text'",
        "overlapping-cues": f"{cues}: cue inventories overlap: करता",
    }[kind]
    assert (result.returncode, result.stderr) == (1, f"error: {expected}\n")
