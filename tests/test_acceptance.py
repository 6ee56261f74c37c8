"""Acceptance criteria, one test per criterion.

Run with `pytest tests/test_acceptance.py -v`; the terminal summary prints one
PASS/FAIL line per criterion (see conftest.pytest_terminal_summary).
"""

import hashlib
import json
import random
import subprocess
import sys
import time

import pytest

from mtgender.backends import MockSpec, mock_translate
from mtgender.cli import run
from mtgender.classify import ClassifiedRecord, classify_gender
from mtgender.corpus import GenderLabel, SourceSentence, Stereotype, Suite
from mtgender.resources import data_path
from mtgender.metrics import (
    Proportions,
    compute_ps,
    compute_tgbi,
    compute_winomt,
)
from mtgender.templates import expand_otsc
from mtgender.tables import fmt_pct

from conftest import dev_digits
from oracles import oracle_winomt

M, F, N, A = GenderLabel.MALE, GenderLabel.FEMALE, GenderLabel.NEUTRAL, GenderLabel.AMBIGUOUS


def run_pipeline(corpus, spec):
    """mock-translate then classify, returning the classified records."""
    return [ClassifiedRecord(s, text, *classify_gender(text))
            for s in corpus for text in [mock_translate(s, spec)]]


def test_c1_tgbi_aggregation_fidelity():
    per_set = {"S1": 0.787, "S2": 0.620, "S3": 0.623, "S4": 0.569,
               "S5": 0.819, "S6": 0.926, "S7": 0.848}
    assert abs(compute_tgbi(per_set) - 0.742) <= 0.0005


def test_c2_balance_score_properties():
    rng = random.Random(20240817)
    start = time.perf_counter()
    for i in range(10_000):
        if i % 10 == 0:
            # force boundary shapes: single-gender and gendered-pair extremes
            shape = rng.choice(["neutral", "male", "female", "pair", "no_female"])
            if shape == "neutral":
                p = Proportions(0.0, 0.0, 1.0)
            elif shape == "male":
                p = Proportions(1.0, 0.0, 0.0)
            elif shape == "female":
                p = Proportions(0.0, 1.0, 0.0)
            elif shape == "pair":
                x = rng.random()
                p = Proportions(x, 1.0 - x, 0.0)
            else:
                x = rng.random()
                p = Proportions(x, 0.0, 1.0 - x)
        else:
            a, b = sorted((rng.random(), rng.random()))
            p = Proportions(a, b - a, 1.0 - b)
        value = compute_ps(p)
        assert 0.0 <= value <= 1.0
        assert compute_ps(Proportions(p.p_f, p.p_m, p.p_n)) == value
        if p.p_m * p.p_f == 0.0:
            # on the single-gender boundary the score is 1 only at full neutral
            assert (value == 1.0) == (p.p_n == 1.0)
    assert compute_ps(Proportions(0.5, 0.5, 0.0)) == 0.5
    assert time.perf_counter() - start < 1.0


def test_c3_f1_oracle_equivalence():
    rng = random.Random(404)
    for _ in range(500):
        size = rng.randint(1, 200)
        records = []
        for i in range(size):
            source = SourceSentence(
                id=f"r{i}", text=f"वाक्य {dev_digits(i)}", suite=Suite.WINOMT,
                set_id="main", gold_gender=rng.choice([M, F]), occupation="मैकेनिक",
                stereotype=rng.choice(list(Stereotype)), referenced_entity=None,
            )
            records.append(ClassifiedRecord(source, "", rng.choice([M, F, N, A]), ()))
        report = compute_winomt(records)
        expected = oracle_winomt(records)
        assert report.acc == expected["acc"]
        assert report.f1_male == expected["f1_male"]
        assert report.f1_female == expected["f1_female"]
        assert report.delta_g == expected["delta_g"]
        assert report.n == expected["n"]
        assert report.delta_s == expected["delta_s"]


def test_c4_masculine_default_fixture(winomt_corpus_400):
    report = compute_winomt(run_pipeline(winomt_corpus_400, MockSpec("always_male")))
    assert report.acc == 50.0
    assert report.f1_male == pytest.approx(200 / 3, abs=1e-9)
    assert fmt_pct(report.f1_male) == "66.7"
    assert report.f1_female == 0.0
    assert report.delta_g == pytest.approx(200 / 3, abs=1e-9)
    assert fmt_pct(report.delta_g) == "66.7"
    assert report.delta_s == 0.0
    assert report.n == 0.0


def test_c5_perfect_translator_fixture(winomt_corpus_400):
    report = compute_winomt(run_pipeline(winomt_corpus_400, MockSpec("echo_gold")))
    assert report.acc == 100.0
    assert report.delta_g == 0.0
    assert report.delta_s == 0.0
    assert report.n == 0.0


def test_c6_neutral_handling(winomt_corpus_400):
    report = compute_winomt(run_pipeline(winomt_corpus_400, MockSpec("neutralizing")))
    assert report.acc == 0.0
    assert report.n == 100.0
    assert report.f1_male == 0.0
    assert report.f1_female == 0.0
    label, tokens = classify_gender("The secretary asks the mover what to do to help")
    assert label is GenderLabel.NEUTRAL and tokens == ()


def test_c7_otsc_expansion(occupations_1071, tmp_path):
    occupations = [
        line.strip()
        for line in occupations_1071.read_text(encoding="utf-8").splitlines()
        if line.strip()
    ]
    sentences = expand_otsc(occupations)
    assert len(sentences) == 4284
    per_quadrant = {}
    for sentence in sentences:
        per_quadrant[sentence.set_id] = per_quadrant.get(sentence.set_id, 0) + 1
    assert per_quadrant == {"FF": 1071, "FM": 1071, "MF": 1071, "MM": 1071}

    golden = next(s for s in sentences if s.set_id == "MM" and s.occupation == "डॉक्टर")
    for token in ("जानता", "मेरा", "करता", "डॉक्टर"):
        assert token in golden.text

    first = tmp_path / "first.jsonl"
    second = tmp_path / "second.jsonl"
    for out in (first, second):
        result = subprocess.run(
            [sys.executable, "-m", "mtgender", "generate",
             "--occupations", str(occupations_1071), "--out", str(out)],
            capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
    assert first.read_bytes() == second.read_bytes()
    assert len(first.read_text(encoding="utf-8").splitlines()) == 4284


@pytest.mark.parametrize("text", ["here", "therapist", "shed", "history"])
def test_c8_classifier_word_boundaries_negative(text):
    assert classify_gender(text) == (GenderLabel.NEUTRAL, ())


@pytest.mark.parametrize("text,token", [("him,", "him"), ("His", "his")])
def test_c8_classifier_word_boundaries_positive(text, token):
    label, tokens = classify_gender(text)
    assert tokens == (token,)
    assert label is GenderLabel.MALE


def test_c9_end_to_end_determinism(occupations_1071, tmp_path):
    config_path = tmp_path / "backends.json"
    config_path.write_text(json.dumps({
        "backends": [
            {"name": "coin", "kind": "mock",
             "mock": {"spec": "coin_flip", "seed": 42, "p_male": 0.5}},
        ]
    }), encoding="utf-8")

    artifacts = []
    for run_dir in ("one", "two"):
        base = tmp_path / run_dir
        base.mkdir()
        sentences = base / "sentences.jsonl"
        translations = base / "translations.jsonl"
        report = base / "report.json"
        started = time.perf_counter()
        for argv in (
            ["generate", "--occupations", str(occupations_1071), "--out", str(sentences)],
            ["translate", "--sentences", str(sentences), "--config", str(config_path),
             "--backend", "coin", "--out", str(translations)],
            ["evaluate", "--sentences", str(sentences), "--translations", str(translations),
             "--suite", "otsc", "--out", str(report)],
        ):
            result = subprocess.run([sys.executable, "-m", "mtgender", *argv],
                                    capture_output=True, text=True)
            assert result.returncode == 0, f"{argv}: {result.stderr}"
        assert time.perf_counter() - started < 10.0
        artifacts.append((sentences.read_bytes(), translations.read_bytes(),
                          report.read_bytes()))

    assert artifacts[0][0] == artifacts[1][0]
    assert artifacts[0][1] == artifacts[1][1]
    assert artifacts[0][2] == artifacts[1][2]
    payload = json.loads(artifacts[0][2].decode("utf-8"))
    assert payload["counts"]["sources"] == 4284


# sha256 of every file and stdout of the golden pipeline below, as written by
# mtgender 0.1 (commit ef9b183); any change to an output byte fails this test
GOLDEN_SHA256 = {
    "generate.stdout":
        "56482ec302d94bd53b91afbe9ca1c451ee019ac2b865bf810a463ab7d6c66b91",
    "translate_otsc.stdout":
        "1cb07ec2eb37dfe06d8618bc4b25de330838ab625a630a8e965da545b12c4345",
    "translate_winomt_coin.stdout":
        "c52ea7b3d66a60040a74b5b4f4d9d0a220e52ccd051ce5895c1b267eefd808b3",
    "translate_winomt_gold.stdout":
        "375d8116357a85c592647dd11528a57d584a032ec15f28011cc767c0129417f5",
    "evaluate_otsc.stdout":
        "f785602fc1975ee947f76ca98ec63d3bca5e4063d5ccce058c53d4c7b7821ca1",
    "evaluate_winomt_coin.stdout":
        "0de346c89bcaa329e39825442a0f371dfafc9f557ef770c11201347f59367a01",
    "evaluate_winomt_strict.stdout":
        "0de346c89bcaa329e39825442a0f371dfafc9f557ef770c11201347f59367a01",
    "evaluate_winomt_gold.stdout":
        "850882656311ba9301880897875bc89d4b1d9f882f98af6121ffdefd6a941e68",
    "report.stdout":
        "da3b720e8928e5d9277121e09d29438bcae46acebea1d7aeada6392048726d1c",
    "otsc.jsonl":
        "37cadae38437627959e06363d055c77f81a3304241c8128680be31273a3167e4",
    "otsc_coin.jsonl":
        "91eb51d01b378f92faa047062dea2bb64fbd12dd4f24e813d47155d7db879d74",
    "otsc_report.json":
        "5eee3642f7ff424ecbcc86bfefc52b1584b29af40311f90f9d0f2f21aa533947",
    "otsc_table.txt":
        "f785602fc1975ee947f76ca98ec63d3bca5e4063d5ccce058c53d4c7b7821ca1",
    "w_coin.json":
        "477f7970739089f4a8983d984b46665f2cf391977f48a6e3af49cf1fa6be3d9d",
    "w_coin.jsonl":
        "aba606edc2a37258827e7ff3bec8409c3bbd0f426715f71058450579fd2d8485",
    "w_coin_strict.json":
        "7361d158d8da7e69de69821babced0f96de5a595f1bb723673a94eee50bc25a5",
    "w_gold.json":
        "8810fb69682241112126c932377ab3375bfc1c754df80920a757c0417e35086d",
    "w_gold.jsonl":
        "3a4da170fbb44fc5c70569981df418b8d852c1eeae458f13e7e8c70067334737",
    "w_table.txt":
        "da3b720e8928e5d9277121e09d29438bcae46acebea1d7aeada6392048726d1c",
}


def golden_pipeline(tmp_path, capsys) -> dict[str, str]:
    """generate on the bundled occupations, translate with coin_flip and
    echo_gold mocks, evaluate otsc and winomt (default, and --strict with
    stereotype lists), report; the sha256 of each output file and stdout.
    Runs in tmp_path, which must be the working directory."""
    config = tmp_path / "backends.json"
    config.write_text(json.dumps({"backends": [
        {"name": "coin", "kind": "mock", "mock": {"spec": "coin_flip", "seed": 7, "p_male": 0.5}},
        {"name": "gold", "kind": "mock", "mock": {"spec": "echo_gold"}},
    ]}), encoding="utf-8")
    winomt = data_path("winomt_sample.jsonl")
    # the report records the list paths: relative ones keep it the same everywhere
    lists = []
    for gender in ("male", "female"):
        name = f"stereotypes_{gender}.txt"
        (tmp_path / name).write_bytes(data_path(name).read_bytes())
        lists += [f"--{gender}-stereotypes", name]
    steps = {
        "generate": ["generate", "--occupations", data_path("occupations_sample.txt"),
                     "--out", "otsc.jsonl"],
        "translate_otsc": ["translate", "--sentences", "otsc.jsonl", "--config", config,
                           "--backend", "coin", "--out", "otsc_coin.jsonl"],
        "translate_winomt_coin": ["translate", "--sentences", winomt, "--suite", "winomt",
                                  "--config", config, "--backend", "coin", "--out", "w_coin.jsonl"],
        "translate_winomt_gold": ["translate", "--sentences", winomt, "--suite", "winomt",
                                  "--config", config, "--backend", "gold", "--out", "w_gold.jsonl"],
        "evaluate_otsc": ["evaluate", "--sentences", "otsc.jsonl", "--translations",
                          "otsc_coin.jsonl", "--suite", "otsc", "--out", "otsc_report.json",
                          "--table", "otsc_table.txt"],
        "evaluate_winomt_coin": ["evaluate", "--sentences", winomt, "--translations",
                                 "w_coin.jsonl", "--suite", "winomt", "--out", "w_coin.json"],
        "evaluate_winomt_strict": ["evaluate", "--sentences", winomt, "--translations",
                                   "w_coin.jsonl", "--suite", "winomt", "--strict", *lists,
                                   "--out", "w_coin_strict.json"],
        "evaluate_winomt_gold": ["evaluate", "--sentences", winomt, "--translations",
                                 "w_gold.jsonl", "--suite", "winomt", "--out", "w_gold.json"],
        "report": ["report", "w_coin.json", "w_gold.json", "--out", "w_table.txt"],
    }
    digests = {}
    for name, argv in steps.items():
        assert run([str(arg) for arg in argv]) == 0, name
        digests[f"{name}.stdout"] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        for flag, value in zip(argv, argv[1:]):
            if flag in ("--out", "--table"):
                digests[value] = hashlib.sha256((tmp_path / value).read_bytes()).hexdigest()
    return digests


def test_golden_pipeline_bytes(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert golden_pipeline(tmp_path, capsys) == GOLDEN_SHA256


# sha256 of every sidecar the golden pipeline writes, with its created_utc
# line dropped and the bundled data directory written as <data>; any other
# change to a sidecar byte fails this test
GOLDEN_SIDECAR_SHA256 = {
    "otsc.jsonl.manifest.json":
        "4e73324b0096308af78e21be0a30351cc7a2220b8ce547161e7af823273a289d",
    "otsc_coin.jsonl.manifest.json":
        "330cb5be667c200d59de6dc3847571a756f28f298329ce65a9dcc63b04840af1",
    "otsc_report.json.manifest.json":
        "6ab33bad48b1e860e7556941688ed788340da8c6ffe672a46a825a71019c377f",
    "w_coin.json.manifest.json":
        "a9399165d4d99f9b2a63545c51b33f2255b482187085d8e54cb6855805baa10c",
    "w_coin.jsonl.manifest.json":
        "a96130e45980c0ecdb32ff27f858d2f4382c9ecd4b5a910f7025776b77f2e0f1",
    "w_coin_strict.json.manifest.json":
        "2343a977f2b39c5f55397c58abaeb0a424024cacddd16ebdee482c8556e1cf11",
    "w_gold.json.manifest.json":
        "5916c7a0951cf1d7ac14bf360949efff257d5778f90aae3d93b98aa009fd8682",
    "w_gold.jsonl.manifest.json":
        "3761b118edbf7eb9ed7360290091b5f7ea4712fee8156ce08785d73cf42eb8f3",
}


def test_golden_pipeline_sidecars(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    golden_pipeline(tmp_path, capsys)
    data_dir = json.dumps(str(data_path("otsc_template.json").parent))[1:-1]
    digests = {}
    for sidecar in tmp_path.glob("*.manifest.json"):
        lines = sidecar.read_text(encoding="utf-8").splitlines(keepends=True)
        text = "".join(line for line in lines if '"created_utc": ' not in line)
        digests[sidecar.name] = hashlib.sha256(
            text.replace(data_dir, "<data>").encode("utf-8")).hexdigest()
    assert digests == GOLDEN_SIDECAR_SHA256
