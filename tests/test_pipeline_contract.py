"""The pipeline's file contract, checked through the command line.

Each test runs `python -m mtgender` as a child process in a directory of its
own, and checks what a shell sees: exit codes, stdout, stderr and the bytes of
each file. The child imports the package from this checkout's src/, unless
MTGENDER_PYTHON names another interpreter: then the package installed for it
is checked instead, such as a wheel in a bare virtual environment:

    MTGENDER_PYTHON=/path/to/venv/bin/python python -m pytest tests/test_pipeline_contract.py

The packaged data files are found through that interpreter's
mtgender.resources, never in the checkout. The kill tests stop a real
translate part-way through, by SIGKILL or SIGINT, and resume it.
"""

import hashlib
import json
import os
import random
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from conftest import translation_server

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PYTHON = os.environ.get("MTGENDER_PYTHON")
COMMAND = [PYTHON or sys.executable, "-m", "mtgender"]
# the checkout's src/ goes first, as an absolute path: the tests' own
# PYTHONPATH may name it relative to a directory the child does not run in
ENV = os.environ if PYTHON else {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}

PACKAGED = ["occupations_sample.txt", "otsc_template.json", "winomt_sample.jsonl",
            "stereotypes_male.txt", "stereotypes_female.txt"]
COIN = {"backends": [{"name": "coin", "kind": "mock", "mock": {"spec": "coin_flip"}}]}
TRANSLATE = ["translate", "--sentences", "otsc.jsonl", "--config", "backends.json",
             "--backend", "coin", "--out", "translations.jsonl"]
EVALUATE = ["evaluate", "--sentences", "otsc.jsonl", "--translations", "translations.jsonl",
            "--suite", "otsc"]

pytestmark = pytest.mark.usefixtures("installed")


def cli(cwd: Path, *argv: str) -> tuple[int, str, str]:
    """Run the command line with argv in cwd: (exit code, stdout, stderr)."""
    result = subprocess.run([*COMMAND, *argv], cwd=cwd, env=ENV, capture_output=True,
                            encoding="utf-8", timeout=120)
    return result.returncode, result.stdout, result.stderr


@pytest.fixture(scope="session")
def installed(tmp_path_factory) -> dict[str, Path]:
    """Each packaged data file, as the interpreter under test finds it, once
    that interpreter is shown to import the package meant: one outside the
    checkout when MTGENDER_PYTHON is set, else the checkout's src/."""
    probe = ("import json, sys, mtgender; from mtgender.resources import data_path; "
             "print(json.dumps([mtgender.__file__, *(str(data_path(n)) for n in sys.argv[1:])]))")
    result = subprocess.run([COMMAND[0], "-c", probe, *PACKAGED], env=ENV, capture_output=True,
                            encoding="utf-8", cwd=tmp_path_factory.mktemp("probe"), check=True)
    module, *paths = json.loads(result.stdout)
    module = Path(module).resolve()
    if PYTHON:
        assert not module.is_relative_to(ROOT), f"{PYTHON} imports {module} from the checkout"
    else:
        assert module.is_relative_to(SRC), f"{module} is not under {SRC}"
    return dict(zip(PACKAGED, map(Path, paths)))


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory, installed) -> SimpleNamespace:
    """One run of the four stages over the packaged occupations, translated
    by a coin-flip mock: its directory, its sentence count, and what
    evaluate and report printed."""
    root = tmp_path_factory.mktemp("pipeline")
    (root / "backends.json").write_text(json.dumps(COIN), encoding="utf-8")
    occupations = str(installed["occupations_sample.txt"])
    assert cli(root, "generate", "--occupations", occupations, "--out", "otsc.jsonl")[0] == 0
    assert cli(root, *TRANSLATE)[0] == 0
    code, evaluated, _ = cli(root, *EVALUATE, "--out", "report.json")
    assert code == 0
    code, reported, _ = cli(root, "report", "report.json")
    assert code == 0
    n = (root / "otsc.jsonl").read_bytes().count(b"\n")
    return SimpleNamespace(root=root, n=n, evaluated=evaluated, reported=reported,
                           first=(root / "translations.jsonl").read_bytes())


def copy(pipeline: SimpleNamespace, into: Path, *names: str) -> None:
    """Copy each named file of the pipeline's run, and its sidecar, into a
    test's own directory."""
    for name in names:
        for path in (pipeline.root / name, pipeline.root / f"{name}.manifest.json"):
            if path.exists():
                shutil.copy(path, into / path.name)


def sidecar(path: Path) -> dict:
    return json.loads(Path(f"{path}.manifest.json").read_text(encoding="utf-8"))


def test_generate_counts_each_quadrant_in_its_sidecar(pipeline):
    """Each quadrant's count in generate's sidecar is the number of the
    file's lines in that quadrant."""
    text = (pipeline.root / "otsc.jsonl").read_text(encoding="utf-8")
    counts = sidecar(pipeline.root / "otsc.jsonl")["counts"]
    for quadrant in ("FF", "FM", "MF", "MM"):
        lines = sum(f'"set_id": "{quadrant}"' in line for line in text.splitlines())
        assert counts[f"quadrant_{quadrant}"] == lines


def test_a_resume_with_nothing_pending_keeps_the_output_file(pipeline, tmp_path):
    """The same translate again reuses every record and leaves the output as
    it is: same bytes and same inode, where a rewrite makes a new one."""
    copy(pipeline, tmp_path, "otsc.jsonl", "translations.jsonl", "backends.json")
    inode = (tmp_path / "translations.jsonl").stat().st_ino
    code, out, _ = cli(tmp_path, *TRANSLATE)
    assert code == 0
    n = pipeline.n
    assert f"translated {n}/{n} ok (0 failed, {n} reused) via coin" in out.splitlines()
    assert (tmp_path / "translations.jsonl").read_bytes() == pipeline.first
    assert (tmp_path / "translations.jsonl").stat().st_ino == inode


def test_an_output_that_lost_its_last_line_is_merged_to_the_same_bytes(pipeline, tmp_path):
    copy(pipeline, tmp_path, "otsc.jsonl", "translations.jsonl", "backends.json")
    lines = pipeline.first.splitlines(keepends=True)
    (tmp_path / "translations.jsonl").write_bytes(b"".join(lines[:-1]))
    code, out, _ = cli(tmp_path, *TRANSLATE)
    assert code == 0
    n = pipeline.n
    assert f"translated {n}/{n} ok (0 failed, {n - 1} reused) via coin" in out.splitlines()
    assert (tmp_path / "translations.jsonl").read_bytes() == pipeline.first


def test_evaluate_prints_the_table_that_report_prints(pipeline):
    assert pipeline.evaluated == pipeline.reported


@pytest.mark.parametrize("command, name", [("generate", "otsc.jsonl"),
                                           ("translate", "translations.jsonl"),
                                           ("evaluate", "report.json")])
def test_each_sidecar_names_its_stage_and_the_sha256_of_its_output(pipeline, command, name):
    manifest = sidecar(pipeline.root / name)
    sha256 = hashlib.sha256((pipeline.root / name).read_bytes()).hexdigest()
    assert [manifest["command"], manifest["output"]["sha256"]] == [command, sha256], manifest


def test_crlf_inputs_give_the_same_table(pipeline, tmp_path):
    """CRLF line endings parse as LF ones do."""
    for name in ("otsc.jsonl", "translations.jsonl"):
        data = (pipeline.root / name).read_bytes()
        (tmp_path / name).write_bytes(data.replace(b"\n", b"\r\n"))
    code, out, _ = cli(tmp_path, *EVALUATE, "--no-verify", "--out", "report-crlf.json")
    assert code == 0
    assert out == pipeline.evaluated


def test_the_packaged_template_named_explicitly_gives_the_same_sentences(pipeline, tmp_path,
                                                                       installed):
    code, _, _ = cli(tmp_path, "generate", "--occupations",
                     str(installed["occupations_sample.txt"]),
                     "--template", str(installed["otsc_template.json"]), "--out", "otsc.jsonl")
    assert code == 0
    assert (tmp_path / "otsc.jsonl").read_bytes() == (pipeline.root / "otsc.jsonl").read_bytes()


def test_a_two_list_pronoun_lexicon_gives_the_same_table(pipeline, tmp_path):
    copy(pipeline, tmp_path, "otsc.jsonl", "translations.jsonl")
    (tmp_path / "pronouns.json").write_text(json.dumps(
        {"male_tokens": ["he", "him", "his"], "female_tokens": ["she", "her", "hers"]}),
        encoding="utf-8")
    code, out, _ = cli(tmp_path, *EVALUATE, "--pronouns", "pronouns.json",
                       "--out", "report-pronouns.json")
    assert code == 0
    assert out == pipeline.evaluated


def test_an_input_that_cannot_be_opened_is_named(tmp_path):
    code, _, err = cli(tmp_path, "generate", "--occupations", "missing.txt", "--out", "x.jsonl")
    assert code == 1
    assert err == "error: missing.txt: No such file or directory\n"


def test_an_output_that_cannot_be_created_is_named_as_given(tmp_path, installed):
    """Named as given and not as its temp file, which here makes the name too
    long; no temp file is left."""
    long = "a" * 250
    code, _, err = cli(tmp_path, "generate", "--occupations",
                       str(installed["occupations_sample.txt"]), "--out", long)
    assert code == 1
    assert err == f"error: {long}: File name too long\n"
    assert not list(tmp_path.rglob("*.tmp"))


def test_translations_in_reverse_order_give_the_same_table(pipeline, tmp_path):
    """evaluate counts each translation as it reads it."""
    copy(pipeline, tmp_path, "otsc.jsonl")
    lines = pipeline.first.splitlines(keepends=True)
    (tmp_path / "translations.jsonl").write_bytes(b"".join(reversed(lines)))
    code, out, _ = cli(tmp_path, *EVALUATE, "--no-verify", "--out", "report-reversed.json")
    assert code == 0
    assert out == pipeline.evaluated


def test_shuffled_translations_give_the_table_of_the_file_in_sentence_order(pipeline, tmp_path,
                                                                           installed):
    """evaluate joins each translation to its sentence by id, in one read:
    the packaged WinoMT sample's translations, shuffled, give the table of
    the file in sentence order, with the packaged lists and --strict."""
    winomt = str(installed["winomt_sample.jsonl"])
    copy(pipeline, tmp_path, "backends.json")
    assert cli(tmp_path, "translate", "--sentences", winomt, "--suite", "winomt",
               "--config", "backends.json", "--backend", "coin", "--out", "in-order.jsonl")[0] == 0
    lines = (tmp_path / "in-order.jsonl").read_bytes().splitlines(keepends=True)
    shuffled = random.Random(5).sample(lines, len(lines))
    assert shuffled != lines
    (tmp_path / "shuffled.jsonl").write_bytes(b"".join(shuffled))
    printed = [cli(tmp_path, "evaluate", "--sentences", winomt, "--translations", name,
                   "--suite", "winomt", "--strict", "--out", f"{name}.report.json",
                   "--male-stereotypes", str(installed["stereotypes_male.txt"]),
                   "--female-stereotypes", str(installed["stereotypes_female.txt"]))
               for name in ("in-order.jsonl", "shuffled.jsonl")]
    assert printed[0][0] == 0 and printed[0][1]
    assert printed[1] == printed[0]


def test_the_hash_seed_changes_no_output(pipeline, tmp_path, installed):
    """The duplicate-id screen keeps each id's hash(), which PYTHONHASHSEED
    salts: under two seeds the three stages print the same lines and write
    the same bytes, and a duplicate id gives the same error."""
    runs = []
    for seed in ("0", "1"):
        root = tmp_path / seed
        root.mkdir()
        copy(pipeline, root, "backends.json")

        def stage(*argv: str) -> tuple[int, str, str]:
            result = subprocess.run([*COMMAND, *argv], cwd=root, capture_output=True,
                                    env={**ENV, "PYTHONHASHSEED": seed}, encoding="utf-8",
                                    timeout=120)
            return result.returncode, result.stdout, result.stderr

        printed = [stage("generate", "--occupations", str(installed["occupations_sample.txt"]),
                         "--out", "otsc.jsonl"), stage(*TRANSLATE),
                   stage(*EVALUATE, "--out", "report.json")]
        written = [(root / name).read_bytes()
                   for name in ("otsc.jsonl", "translations.jsonl", "report.json")]
        with open(root / "otsc.jsonl", "ab") as fh:
            fh.write(written[0].splitlines(keepends=True)[-1])
        printed.append(stage(*EVALUATE, "--no-verify", "--out", "duplicate.json"))
        runs.append((printed, written))
    assert runs[0] == runs[1]
    assert [code for code, _, _ in runs[0][0]] == [0, 0, 0, 1]
    assert runs[0][0][3][2] == (f"error: otsc.jsonl: line {pipeline.n + 1}: duplicate id "
                                f"'otsc-MM-{pipeline.n // 4 - 1:05d}' (first seen on line "
                                f"{pipeline.n})\n")
    assert runs[0][1][2] == (pipeline.root / "report.json").read_bytes()


def test_the_winomt_sample_carries_the_tags_its_packaged_lists_give(pipeline, tmp_path,
                                                                  installed):
    """Recomputing the packaged sample's stereotype tags from the packaged
    lists leaves the table as it is."""
    winomt = str(installed["winomt_sample.jsonl"])
    copy(pipeline, tmp_path, "backends.json")
    assert cli(tmp_path, "translate", "--sentences", winomt, "--suite", "winomt",
               "--config", "backends.json", "--backend", "coin",
               "--out", "winomt-translations.jsonl")[0] == 0
    evaluate = ["evaluate", "--sentences", winomt, "--translations", "winomt-translations.jsonl",
                "--suite", "winomt"]
    code, tagged, _ = cli(tmp_path, *evaluate, "--out", "winomt.json")
    assert code == 0
    code, listed, _ = cli(tmp_path, *evaluate, "--out", "winomt-lists.json",
                          "--male-stereotypes", str(installed["stereotypes_male.txt"]),
                          "--female-stereotypes", str(installed["stereotypes_female.txt"]))
    assert code == 0
    assert listed == tagged


def test_a_torn_journal_is_resumed_to_the_same_bytes(pipeline, tmp_path):
    """A journal whose last line a crash tore is resumed, reusing each record
    before the torn line, and then removed."""
    copy(pipeline, tmp_path, "otsc.jsonl", "backends.json")
    lines = pipeline.first.splitlines(keepends=True)
    journal = tmp_path / "translations.jsonl.partial"
    journal.write_bytes(b"".join(lines[:3]) + b'{"source_id": "otsc-')
    code, out, _ = cli(tmp_path, *TRANSLATE)
    assert code == 0
    assert "(0 failed, 3 reused)" in out
    assert (tmp_path / "translations.jsonl").read_bytes() == pipeline.first
    assert not journal.exists()


def test_fresh_over_an_output_and_a_leftover_journal_translates_everything(pipeline, tmp_path):
    """--fresh translates every source again, writes the same bytes, and
    leaves no journal or temp file."""
    copy(pipeline, tmp_path, "otsc.jsonl", "translations.jsonl", "backends.json")
    journal = tmp_path / "translations.jsonl.partial"
    journal.write_bytes(b"".join(pipeline.first.splitlines(keepends=True)[:2]))
    code, out, _ = cli(tmp_path, *TRANSLATE, "--fresh")
    assert code == 0
    n = pipeline.n
    assert f"translated {n}/{n} ok (0 failed, 0 reused) via coin" in out.splitlines()
    assert (tmp_path / "translations.jsonl").read_bytes() == pipeline.first
    assert not journal.exists()
    assert not list(tmp_path.rglob("*.tmp"))


# --------------------------------------------------------------------------
# A real crash: translate is stopped while the loopback server holds a request


def _http_config(url: str, concurrency: int = 1) -> str:
    """One http backend that sends the 16 sentences four to a batch,
    concurrency requests at a time."""
    return json.dumps({"backends": [{
        "name": "stub", "kind": "http", "endpoint": url, "batch_size": 4,
        "max_concurrency": concurrency,
        "timeout_s": 60, "request_template": {
            "body": {"q": "{text}"}, "response_path": "data.translations.0.translatedText"}}]})


HTTP_TRANSLATE = ["translate", "--sentences", "otsc.jsonl", "--config", "http.json",
                  "--backend", "stub", "--out", "translations.jsonl"]


@pytest.fixture(scope="module")
def otsc_16(tmp_path_factory) -> bytes:
    """The 16 OTSC sentences of four occupations."""
    root = tmp_path_factory.mktemp("otsc16")
    (root / "occ.txt").write_text("डॉक्टर\nवकील\nनर्स\nमाली\n", encoding="utf-8")
    assert cli(root, "generate", "--occupations", "occ.txt", "--out", "otsc.jsonl")[0] == 0
    return (root / "otsc.jsonl").read_bytes()


@pytest.fixture(scope="module")
def uninterrupted(tmp_path_factory, otsc_16) -> bytes:
    """What a translate of otsc_16 that nothing stops writes."""
    root = tmp_path_factory.mktemp("uninterrupted")
    (root / "otsc.jsonl").write_bytes(otsc_16)
    with translation_server() as (url, _):
        (root / "http.json").write_text(_http_config(url), encoding="utf-8")
        assert cli(root, *HTTP_TRANSLATE)[0] == 0
    return (root / "translations.jsonl").read_bytes()


@pytest.mark.parametrize("signum, k, concurrency", [
    (signal.SIGKILL, 1, 1), (signal.SIGKILL, 5, 1), (signal.SIGKILL, 10, 1), (signal.SIGINT, 7, 1),
    (signal.SIGINT, 3, 2),
], ids=["kill-1", "kill-5", "kill-10", "int-7", "int-3-concurrent"])
def test_a_translate_stopped_at_request_k_resumes_to_the_same_bytes(
    tmp_path, http_server, otsc_16, uninterrupted, signum, k, concurrency
):
    """Stopped while its k-th request is held, translate has journaled each
    batch finished before it, four records a batch (none at all before the
    first, so no journal exists). Resumed, it reuses those records,
    translates the rest, and writes what an uninterrupted run writes,
    leaving no journal or temp file. Stopped by SIGINT, as by Ctrl-C, it
    prints one error line and exits 1; with requests in flight on two
    threads, it does so within 2 s, while the server still holds request k."""
    url, state = http_server
    (tmp_path / "otsc.jsonl").write_bytes(otsc_16)
    (tmp_path / "http.json").write_text(_http_config(url, concurrency), encoding="utf-8")
    journal = tmp_path / "translations.jsonl.partial"
    state.hold_at = k
    child = subprocess.Popen([*COMMAND, *HTTP_TRANSLATE], cwd=tmp_path, env=ENV,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        assert state.held.wait(timeout=60), "the request was never held"
        journaled = journal.read_bytes().count(b"\n") if journal.exists() else None
        child.send_signal(signum)
        child.wait(timeout=60 if concurrency == 1 else 2)
        assert state.in_flight and not state.release.is_set(), "request k is no longer held"
    finally:
        child.kill()
        _, stderr = child.communicate()
        state.release.set()
    reused = 4 * ((k - 1) // 4)  # the records of the batches finished before request k
    assert journaled == (reused or None)  # no journal before the first finished batch
    if signum == signal.SIGKILL:
        assert child.returncode == -signal.SIGKILL
    else:
        assert child.returncode == 1
        assert stderr == b"error: interrupted\n"
    code, out, _ = cli(tmp_path, *HTTP_TRANSLATE)
    assert code == 0
    assert out == f"translated 16/16 ok (0 failed, {reused} reused) via stub\n"
    assert (tmp_path / "translations.jsonl").read_bytes() == uninterrupted
    assert not journal.exists()
    assert not list(tmp_path.rglob("*.tmp"))
