#!/usr/bin/env python3
"""Run the bundled sample suites through the deterministic mock translators and
print the three comparison tables. Useful as a smoke test and as a template for
wiring in real backends."""

import argparse
from pathlib import Path

from mtgender.backends import BackendConfig, BackendKind, MockSpec, translate_batch
from mtgender.classify import classify_batch
from mtgender.corpus import Suite, load_occupations, read_sentences
from mtgender.metrics import compute_otsc, compute_tgbi_report, compute_winomt
from mtgender.resources import data_path
from mtgender.tables import format_otsc_table, format_tgbi_table, format_winomt_table
from mtgender.templates import expand_otsc

MOCKS = [
    ("echo-gold", MockSpec("echo_gold")),
    ("always-male", MockSpec("always_male")),
    ("always-female", MockSpec("always_female")),
    ("coin-flip", MockSpec("coin_flip", seed=13, p_male=0.5)),
]


def classify_suite(corpus, spec, name):
    config = BackendConfig(name=name, kind=BackendKind.MOCK, mock=spec)
    translations = translate_batch(corpus, config)
    classified, excluded = classify_batch(translations, {s.id: s for s in corpus})
    assert not excluded
    return classified


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--occupations", default=None,
                        help="occupation list (bundled sample when omitted)")
    args = parser.parse_args()

    occupations_path = Path(args.occupations) if args.occupations else data_path(
        "occupations_sample.txt")
    otsc_corpus = expand_otsc(load_occupations(occupations_path))
    winomt_corpus = read_sentences(data_path("winomt_sample.jsonl"), Suite.WINOMT)
    neutral_corpus = read_sentences(data_path("neutral_sample.jsonl"), Suite.NEUTRAL)

    print(f"# OTSC ({len(otsc_corpus)} sentences)")
    otsc_reports = [
        (name, compute_otsc(classify_suite(otsc_corpus, spec, name))) for name, spec in MOCKS
    ]
    print(format_otsc_table(otsc_reports))

    print(f"# WinoMT sample ({len(winomt_corpus)} sentences)")
    winomt_reports = [
        (name, compute_winomt(classify_suite(winomt_corpus, spec, name)))
        for name, spec in MOCKS
    ]
    print(format_winomt_table(winomt_reports))

    print(f"# Gender-neutral sets ({len(neutral_corpus)} sentences)")
    neutral_mocks = [(n, s) for n, s in MOCKS if s.kind != "echo_gold"]
    tgbi_reports = [
        (name, compute_tgbi_report(classify_suite(neutral_corpus, spec, name)))
        for name, spec in neutral_mocks
    ]
    print(format_tgbi_table(tgbi_reports))


if __name__ == "__main__":
    main()
