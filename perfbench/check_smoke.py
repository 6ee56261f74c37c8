"""Checks of the benchmark itself, on the small ``--smoke`` inputs.

Run from the repository root (about a minute):

    PYTHONPATH=src python3 -m pytest -q perfbench/check_smoke.py

The file name keeps it out of the repository's default test collection.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from stub import Plan, Stub  # noqa: E402
from workloads import LABELS, WORKLOADS, mismatches, winomt_expected  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_declared_metric(workload, trace):
    done = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_declared_workloads_are_the_ones_the_benchmark_runs():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", "otsc-mock", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())


_DIGEST_INPUTS = """
import hashlib, json, sys, tempfile
from pathlib import Path
sys.path.insert(0, "perfbench")
from workloads import PREPARE, SMOKE_SIZES
digest = hashlib.sha256()
for name, prepare in PREPARE.items():
    with tempfile.TemporaryDirectory() as d:
        prep = prepare(Path(d), 7, SMOKE_SIZES[name])
        try:
            for path in sorted(Path(d).iterdir()):
                if path.name != "backends.json":  # holds the stub's port
                    digest.update(path.read_bytes())
            digest.update(json.dumps([sorted(prep.fault_ids),
                                      list(prep.expected_reports.values())]).encode())
            if prep.stub is not None:
                digest.update(repr(sorted(prep.stub.plans.items())).encode())
        finally:
            prep.close()
print(digest.hexdigest())
"""


def test_inputs_depend_only_on_the_seed():
    digests = {
        subprocess.run([sys.executable, "-c", _DIGEST_INPUTS], cwd=ROOT, capture_output=True,
                       text=True, check=True, env={**os.environ, "PYTHONHASHSEED": hash_seed},
                       ).stdout
        for hash_seed in ("1", "2")
    }
    assert len(digests) == 1


def test_stub_keep_alive_is_not_slowed_by_delayed_acks():
    import requests

    stub = Stub({"x": Plan(0.0, "He works.")})
    try:
        with requests.Session() as session:
            start = time.perf_counter()
            for _ in range(200):
                reply = session.post(stub.url, json={"q": "x"}, timeout=10)
                assert reply.json()["data"]["translations"][0]["translatedText"] == "He works."
            elapsed = time.perf_counter() - start
        stats = stub.take_stats()
    finally:
        stub.close()
    # two writes per response cost ~40 ms each on a keep-alive connection
    assert elapsed < 4.0
    assert stats.requests == 200 and stats.connections == 1


def test_stub_faults_fire_on_the_first_attempt_only():
    import requests

    stub = Stub({"a": Plan(0.0, "She left.", 429), "b": Plan(0.0, "He left.", 503)})
    try:
        codes = [requests.post(stub.url, json={"q": q}, timeout=10).status_code
                 for q in ("a", "a", "b", "b")]
        stats = stub.take_stats()
    finally:
        stub.close()
    assert codes == [429, 200, 503, 200]
    assert (stats.requests, stats.retries, stats.status_429, stats.ok) == (4, 2, 1, 2)


def test_winomt_oracle_matches_the_program_on_random_rows():
    from mtgender.classify import ClassifiedRecord
    from mtgender.corpus import GenderLabel, SourceSentence, Stereotype, Suite
    from mtgender.metrics import compute_winomt

    rng = random.Random(5)
    predictions = [label for pair in LABELS.values() for label in pair]
    for _ in range(200):
        rows = [(rng.choice(("male", "female")), rng.choice(predictions),
                 rng.choice(("pro", "anti", "unlisted"))) for _ in range(rng.randint(1, 12))]
        records = [
            ClassifiedRecord(
                SourceSentence(f"s{i}", "पाठ", Suite.WINOMT, "x", gold_gender=GenderLabel(gold),
                               stereotype=Stereotype(stereo)),
                "", GenderLabel(predicted), (),
            )
            for i, (gold, predicted, stereo) in enumerate(rows)
        ]
        for strict in (False, True):
            report = compute_winomt(records, strict_neutral=strict)
            actual = {k: getattr(report, k) for k in winomt_expected(rows, strict=strict)["metrics"]}
            assert mismatches(winomt_expected(rows, strict=strict)["metrics"], actual) == []
