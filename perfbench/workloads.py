"""Seeded inputs, stage plans and ground truth for the benchmark workloads.

Each workload writes its input files into a fresh directory, derives from
the same seed the labels every item must end up with, and lists the CLI
stages to run. The program only ever sees the generated files.

Why these three workloads (full sizes; ``--smoke`` shrinks them so the
benchmark's own checks run quickly). The sizes are small enough that a run
of 35 seconds holds five to eight rounds on a two-core machine; the
per-record costs the workloads stress do not depend on them.

* ``otsc-mock``: 6,250 occupations expanded to 25,000 OTSC sentences and
  translated by the ``coin_flip`` mock. The local CPU path: templates,
  corpus parse/validate, JSONL I/O and classify do nearly all the work and
  the backend almost none.
* ``winomt-http``: 1,000 WinoMT records through the HTTP backend at
  ``max_concurrency`` 2 (the machine has two cores) against the loopback
  stub. Service delays are heavy-tailed: 90% take 2-4 ms and 10% take
  30 ms. First attempts fail for 5% of texts with 503 (retried by the
  backend) and for 1% with 429 (a permanent failure today, retried by the
  resume). Retry backoff is 2 ms. The backend (requests, retries, the
  per-batch barrier, connection reuse) does the work; corpus and classify
  almost none.
* ``winomt-replay``: 10,000 WinoMT records with pro, anti and unlisted
  stereotypes, served by ``file_replay`` from ~500-character multi-sentence
  English translations whose pronouns sit at varying positions; some are
  neutral or ambiguous, and some carry only "hers", which the default
  lexicon reads as female and ``--strict`` as neutral. Long texts move the
  evaluate cost into classify, the replay map replaces the mock,
  ``compute_winomt`` replaces ``compute_otsc``, and one cached translation
  file is evaluated twice under different options.
"""

from __future__ import annotations

import json
import math
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from stub import Plan, Stub

WORKLOADS = ("otsc-mock", "winomt-http", "winomt-replay")

FULL_SIZES = {"otsc-mock": 6_250, "winomt-http": 1_000, "winomt-replay": 10_000}
SMOKE_SIZES = {"otsc-mock": 250, "winomt-http": 200, "winomt-replay": 400}

HTTP_CONCURRENCY = 2
HTTP_SLOW_SHARE = 0.10
HTTP_503_SHARE = 0.05
HTTP_429_SHARE = 0.01
CALIBRATION_REQUESTS = 400

_CONSONANTS = [chr(c) for c in range(0x915, 0x939)]
_MATRAS = ["", "ा", "ि", "ी", "ु", "ू", "े", "ै", "ो", "ौ"]
_ENGLISH_OCCUPATIONS = (
    "doctor", "driver", "nurse", "farmer", "clerk", "baker", "lawyer",
    "teacher", "guard", "cook", "tailor", "mechanic", "cashier", "mover",
)
# Filler for the long replay texts: near misses of the pronouns ("there",
# "shed", "hero", "Hershey", "ushers", ...) but never a pronoun itself.
_FILLER = (
    "The committee met in the old hall near the river to discuss the budget for next year.",
    "Where the road bends, there is a shed that the farmers use for storing grain.",
    "Others arrived late because the train from the northern district was delayed again.",
    "The history of the town is written on a plaque beside the gate of the market.",
    "A hero of the local football club visited the school and signed several posters.",
    "The heir to the workshop kept the ledgers in perfect order through the winter.",
    "Ushers guided the guests to their seats while the orchestra tuned its instruments.",
    "Sheer cliffs rise above the harbour, and gulls circle over the fishing boats.",
    "Hershey bars and tea were served to everyone who stayed for the evening session.",
    "The theme of the exhibition was water, light and the changing of the seasons.",
)
_PRONOUN_SENTENCES = {
    "male": (
        "The {occ} said he would finish the report before noon.",
        "Everyone agreed that the plan was his idea from the start.",
        "The manager thanked him for the careful work on the bridge.",
        "He asked the {occ} to wait outside until the meeting ended.",
    ),
    "female": (
        "The {occ} said she would finish the report before noon.",
        "Everyone agreed that the plan was her idea from the start.",
        "The manager thanked her for the careful work on the bridge.",
        "She asked the {occ} to wait outside until the meeting ended.",
    ),
    "hers": ("In the end the final decision on the matter was hers alone.",),
}
# designed outcome -> label under the default lexicon and under --strict
LABELS = {
    "male": ("male", "male"),
    "female": ("female", "female"),
    "hers": ("female", "neutral"),
    "neutral": ("neutral", "neutral"),
    "ambiguous": ("ambiguous", "ambiguous"),
}


def dev_digits(n: int) -> str:
    return "".join(chr(0x0966 + int(d)) for d in str(n))


def _hindi_word(rng: random.Random) -> str:
    return "".join(rng.choice(_CONSONANTS) + rng.choice(_MATRAS) for _ in range(rng.randint(2, 4)))


def _distinct_words(rng: random.Random, n: int) -> list[str]:
    words: set[str] = set()
    while len(words) < n:
        words.add(_hindi_word(rng))
    ordered = sorted(words)
    rng.shuffle(ordered)
    return ordered


def _exact_mix(rng: random.Random, n: int, shares: dict[str, float]) -> list[str]:
    """n outcomes with exactly round(share * n) of each (the first key takes
    the remainder), in seeded random order."""
    names = list(shares)
    counts = {name: round(shares[name] * n) for name in names[1:]}
    counts[names[0]] = n - sum(counts.values())
    mix = [name for name in names for _ in range(counts[name])]
    rng.shuffle(mix)
    return mix


def _write_jsonl(path: Path, records) -> None:
    path.write_text(
        "".join(json.dumps(r, ensure_ascii=False, sort_keys=True) + "\n" for r in records),
        encoding="utf-8",
    )


# --------------------------------------------------------------------------
# Expected metrics, computed from designed labels without the program's code


def otsc_expected(ids_and_labels, n_per_quadrant: int) -> dict:
    by_quadrant: dict[str, Counter] = {q: Counter() for q in ("FF", "FM", "MF", "MM")}
    for sentence_id, label in ids_and_labels:
        by_quadrant[sentence_id.split("-")[1]][label] += 1
    quadrants = {}
    for quadrant, tally in by_quadrant.items():
        n = sum(tally.values())
        males, females = tally["male"], tally["female"]
        hits = males if quadrant[1] == "M" else females
        quadrants[quadrant] = {
            "p_m": 100.0 * males / n,
            "p_w": 100.0 * females / n,
            "p_n": 100.0 * (n - males - females) / n,
            "true_rate": 100.0 * hits / n,
            "count": n,
        }
    total = 4 * n_per_quadrant
    counts = {"sources": total, "translated_ok": total, "translated_failed": 0, "classified": total}
    return {"counts": counts, "metrics": {"quadrants": quadrants}}


def _f1(tp: int, fp: int, fn: int) -> float:
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    return 2 * precision * recall / (precision + recall) if precision + recall else 0.0


def _winomt_tally(rows) -> Counter:
    tally: Counter = Counter()
    for gold, predicted, _ in rows:
        g, other = ("m", "f") if gold == "male" else ("f", "m")
        if predicted == gold:
            tally["tp_" + g] += 1
        elif predicted in ("male", "female"):
            tally["fn_" + g] += 1
            tally["fp_" + other] += 1
        else:
            tally["fn_" + g] += 1
            tally[predicted] += 1
    return tally


def _macro_f1(tally: Counter) -> float:
    male = _f1(tally["tp_m"], tally["fp_m"], tally["fn_m"])
    female = _f1(tally["tp_f"], tally["fp_f"], tally["fn_f"])
    return 100.0 * (male + female) / 2


def winomt_expected(rows, *, strict: bool) -> dict:
    """Expected report counts and metrics for (gold, predicted, stereotype) rows."""
    total = len(rows)
    tally = _winomt_tally(rows)
    f1_male = 100.0 * _f1(tally["tp_m"], tally["fp_m"], tally["fn_m"])
    f1_female = 100.0 * _f1(tally["tp_f"], tally["fp_f"], tally["fn_f"])
    pro = [r for r in rows if r[2] == "pro"]
    anti = [r for r in rows if r[2] == "anti"]
    macro_pro = _macro_f1(_winomt_tally(pro)) if pro else None
    macro_anti = _macro_f1(_winomt_tally(anti)) if anti else None
    neutral_like = tally["neutral"] + (0 if strict else tally["ambiguous"])
    unlisted = total - len(pro) - len(anti)
    metrics = {
        "acc": 100.0 * (tally["tp_m"] + tally["tp_f"]) / total,
        "delta_g": f1_male - f1_female,
        "delta_s": None if macro_pro is None or macro_anti is None else macro_pro - macro_anti,
        "n": 100.0 * neutral_like / total,
        "f1_male": f1_male,
        "f1_female": f1_female,
        "macro_f1_pro": macro_pro,
        "macro_f1_anti": macro_anti,
        "total": total,
        "excluded_unlisted": unlisted,
    }
    counts = {
        "sources": total, "translated_ok": total, "translated_failed": 0,
        "classified": total, "excluded_unlisted": unlisted,
    }
    return {"counts": counts, "metrics": metrics}


def mismatches(expected, actual, where: str = "") -> list[str]:
    """Differences between an expected and an actual report fragment."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or set(expected) != set(actual):
            return [f"{where}: keys {sorted(actual) if isinstance(actual, dict) else actual!r}"]
        return [m for k in expected for m in mismatches(expected[k], actual[k], f"{where}.{k}")]
    if isinstance(expected, float) and isinstance(actual, (int, float)):
        if math.isclose(expected, actual, rel_tol=1e-9, abs_tol=1e-9):
            return []
    elif expected == actual and type(expected) is type(actual):
        return []
    return [f"{where}: expected {expected!r}, got {actual!r}"]


# --------------------------------------------------------------------------
# Workload preparation


@dataclass
class Stage:
    kind: str  # generate | translate | resume | evaluate | report
    argv: list[str]
    ok_codes: tuple[int, ...] = (0,)


@dataclass
class Prepared:
    """One workload's inputs on disk, its stage plan and its ground truth."""

    name: str
    directory: Path
    items: int
    stages: list[Stage]
    translations: Path
    expected_reports: dict[Path, dict]  # report file -> {"counts", "metrics"}
    fault_ids: frozenset[str] = frozenset()  # ids whose first attempt gets a 429
    stub: Stub | None = None
    calibration_rps: float = 0.0

    def close(self) -> None:
        if self.stub is not None:
            self.stub.close()
            self.stub = None


def _translate_stages(d: Path, sentences: Path, backend: str, fresh_codes=(0,)) -> list[Stage]:
    common = ["translate", "--sentences", str(sentences), "--config", str(d / "backends.json"),
              "--backend", backend, "--out", str(d / "translations.jsonl")]
    return [Stage("translate", common + ["--fresh"], fresh_codes), Stage("resume", common)]


def _evaluate(d: Path, sentences: Path, suite: str, report: Path, extra=()) -> Stage:
    return Stage("evaluate", ["evaluate", "--sentences", str(sentences), "--translations",
                              str(d / "translations.jsonl"), "--suite", suite,
                              "--out", str(report), *extra])


def _report(d: Path, reports) -> Stage:
    return Stage("report", ["report", *map(str, reports), "--out", str(d / "table.txt")])


def prepare_otsc_mock(d: Path, seed: int, size: int) -> Prepared:
    rng = random.Random(f"otsc-mock:{seed}")
    occupations = _distinct_words(rng, size)
    (d / "occupations.txt").write_text("\n".join(occupations) + "\n", encoding="utf-8")
    p_male = 0.5
    config = {"backends": [{"name": "coin", "kind": "mock",
                            "mock": {"spec": "coin_flip", "seed": seed, "p_male": p_male}}]}
    (d / "backends.json").write_text(json.dumps(config), encoding="utf-8")

    # coin_flip draws one number per source id from a stream keyed on
    # (seed, id); ids are otsc-<quadrant>-<occupation index>
    labels = []
    for index in range(size):
        for quadrant in ("FF", "FM", "MF", "MM"):
            sentence_id = f"otsc-{quadrant}-{index:05d}"
            draw = random.Random(f"{seed}:{sentence_id}").random()
            labels.append((sentence_id, "male" if draw < p_male else "female"))

    sentences = d / "sentences.jsonl"
    report = d / "report.json"
    stages = [
        Stage("generate", ["generate", "--occupations", str(d / "occupations.txt"),
                           "--out", str(sentences)]),
        *_translate_stages(d, sentences, "coin"),
        _evaluate(d, sentences, "otsc", report),
        _report(d, [report]),
    ]
    return Prepared("otsc-mock", d, 4 * size, stages, d / "translations.jsonl",
                    {report: otsc_expected(labels, size)})


def _winomt_records(rng: random.Random, n: int, stereotype_shares: dict[str, float]):
    vocabulary = _distinct_words(rng, 600)
    occupations = vocabulary[:48]
    male_list, female_list = occupations[:16], occupations[16:32]
    stereotypes = _exact_mix(rng, n, stereotype_shares)
    records = []
    for index in range(n):
        occupation = rng.choice(occupations)
        words = rng.choices(vocabulary, k=rng.randint(6, 10))
        records.append({
            "id": f"w{index:06d}",
            "text": " ".join([occupation, *words, dev_digits(index)]),
            "suite": "winomt",
            "set_id": "synthetic",
            "gold_gender": rng.choice(("male", "female")),
            "occupation": occupation,
            "stereotype": stereotypes[index],
            "referenced_entity": rng.choice(("entity1", "entity2")),
        })
    return records, male_list, female_list


def _listed_stereotype(record: dict, male_list, female_list) -> str:
    if record["occupation"] in male_list:
        return "pro" if record["gold_gender"] == "male" else "anti"
    if record["occupation"] in female_list:
        return "pro" if record["gold_gender"] == "female" else "anti"
    return "unlisted"


def _short_reply(rng: random.Random, outcome: str) -> str:
    occ = rng.choice(_ENGLISH_OCCUPATIONS)
    if outcome == "ambiguous":
        return f"He told the {occ} that she would come back tomorrow."
    pronoun = {"male": "he", "female": "she", "neutral": "they"}[outcome]
    return f"The {occ} said that {pronoun} would come back tomorrow."


def _long_reply(rng: random.Random, outcome: str) -> str:
    occ = rng.choice(_ENGLISH_OCCUPATIONS)
    sentences = []
    while sum(len(s) + 1 for s in sentences) < 440:
        sentences.append(rng.choice(_FILLER))
    cues = {"male": ["male"], "female": ["female"], "hers": ["hers"], "neutral": [],
            "ambiguous": ["male", "female"]}[outcome]
    for cue in cues:
        sentences.insert(rng.randint(0, len(sentences)),
                         rng.choice(_PRONOUN_SENTENCES[cue]).format(occ=occ))
    return " ".join(sentences)


def prepare_winomt_http(d: Path, seed: int, size: int) -> Prepared:
    rng = random.Random(f"winomt-http:{seed}")
    records, _, _ = _winomt_records(rng, size, {"pro": 0.5, "anti": 0.5})
    sentences = d / "sentences.jsonl"
    _write_jsonl(sentences, records)

    outcomes = _exact_mix(rng, size, {"male": 0.45, "female": 0.45, "neutral": 0.05,
                                      "ambiguous": 0.05})
    faults = _exact_mix(rng, size, {"none": 1 - HTTP_503_SHARE - HTTP_429_SHARE,
                                    "503": HTTP_503_SHARE, "429": HTTP_429_SHARE})
    # the slow share is exact within each fault class too, so what the retries
    # and the resume wait for does not change with the seed
    slow = {fault: iter(_exact_mix(rng, faults.count(fault),
                                   {"fast": 1 - HTTP_SLOW_SHARE, "slow": HTTP_SLOW_SHARE}))
            for fault in sorted(set(faults))}
    plans = {}
    for record, outcome, fault in zip(records, outcomes, faults):
        delay_s = 0.030 if next(slow[fault]) == "slow" else rng.uniform(0.002, 0.004)
        status = 200 if fault == "none" else int(fault)
        plans[record["text"]] = Plan(delay_s, _short_reply(rng, outcome), status)
    fault_ids = frozenset(r["id"] for r, f in zip(records, faults) if f == "429")

    stub = Stub(plans)
    try:
        calibration_rps = stub.calibrate(CALIBRATION_REQUESTS, HTTP_CONCURRENCY)
        config = {"backends": [{
            "name": "stub", "kind": "http", "endpoint": stub.url,
            "request_template": {"body": {"q": "{text}", "source": "hi", "target": "en"},
                                 "response_path": "data.translations.0.translatedText"},
            "batch_size": 32, "max_concurrency": HTTP_CONCURRENCY,
            "retry": {"max_attempts": 3, "backoff_base_ms": 2}, "timeout_s": 30,
        }]}
        (d / "backends.json").write_text(json.dumps(config), encoding="utf-8")
    except BaseException:
        stub.close()
        raise

    rows = [(r["gold_gender"], LABELS[o][0], r["stereotype"]) for r, o in zip(records, outcomes)]
    report = d / "report.json"
    stages = [
        *_translate_stages(d, sentences, "stub", fresh_codes=(0, 3)),
        _evaluate(d, sentences, "winomt", report),
        _report(d, [report]),
    ]
    return Prepared("winomt-http", d, size, stages, d / "translations.jsonl",
                    {report: winomt_expected(rows, strict=False)}, fault_ids, stub,
                    calibration_rps)


def prepare_winomt_replay(d: Path, seed: int, size: int) -> Prepared:
    rng = random.Random(f"winomt-replay:{seed}")
    records, male_list, female_list = _winomt_records(
        rng, size, {"pro": 0.4, "anti": 0.4, "unlisted": 0.2})
    sentences = d / "sentences.jsonl"
    _write_jsonl(sentences, records)
    (d / "male.txt").write_text("\n".join(male_list) + "\n", encoding="utf-8")
    (d / "female.txt").write_text("\n".join(female_list) + "\n", encoding="utf-8")

    outcomes = _exact_mix(rng, size, {"male": 0.38, "female": 0.37, "hers": 0.05,
                                      "neutral": 0.10, "ambiguous": 0.10})
    _write_jsonl(d / "replay.jsonl", (
        {"source_id": r["id"], "target_text": _long_reply(rng, o)}
        for r, o in zip(records, outcomes)
    ))
    config = {"backends": [{"name": "replay", "kind": "file_replay",
                            "replay_path": "replay.jsonl"}]}
    (d / "backends.json").write_text(json.dumps(config), encoding="utf-8")

    default_rows = [(r["gold_gender"], LABELS[o][0], r["stereotype"])
                    for r, o in zip(records, outcomes)]
    strict_rows = [(r["gold_gender"], LABELS[o][1], _listed_stereotype(r, male_list, female_list))
                   for r, o in zip(records, outcomes)]
    default_report, strict_report = d / "report-default.json", d / "report-strict.json"
    stages = [
        *_translate_stages(d, sentences, "replay"),
        _evaluate(d, sentences, "winomt", default_report),
        _evaluate(d, sentences, "winomt", strict_report,
                  ["--strict", "--male-stereotypes", str(d / "male.txt"),
                   "--female-stereotypes", str(d / "female.txt")]),
        _report(d, [default_report, strict_report]),
    ]
    return Prepared("winomt-replay", d, size, stages, d / "translations.jsonl", {
        default_report: winomt_expected(default_rows, strict=False),
        strict_report: winomt_expected(strict_rows, strict=True),
    })


PREPARE = {
    "otsc-mock": prepare_otsc_mock,
    "winomt-http": prepare_winomt_http,
    "winomt-replay": prepare_winomt_replay,
}
