"""Pipeline command line: generate, translate, evaluate, report.

Stages communicate via line-delimited UTF-8 record files, so expensive
translation runs are cached on disk and can be re-evaluated under different
options. Every stage output gets a manifest sidecar; evaluation checks input
digests against those manifests unless --no-verify is passed.

Exit codes: 0 all ok, 3 completed with per-item failures, 1 aborted.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import sys
from collections import Counter
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Any, Mapping

from .backends import (
    TranslationRecord,
    TranslationStatus,
    backend_config_from_dict,
    find_backend_entry,
    read_translations,
    translate_batch,
    write_translations,
)
from .classify import PronounLexicon, classify_batch
from .corpus import (
    StereotypeLists,
    Suite,
    assign_stereotype,
    load_occupations,
    read_sentences,
    write_sentences,
)
from .fileio import (
    atomic_write_text, decode_document, dumps_record, file_errors, line_encoder, load_json,
    sha256_text,
)
from .manifest import (
    RunManifest,
    derive_run_id,
    file_ref,
    tool_version,
    verify_against_sidecar,
    write_sidecar,
)
from .metrics import (
    OtscReport,
    TgbiReport,
    WinomtReport,
    compute_otsc,
    compute_tgbi_report,
    compute_winomt,
)
from .tables import format_otsc_table, format_tgbi_table, format_winomt_table
from .templates import OtscTemplate, expand_otsc
from .resources import data_path

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_ABORTED = 1
EXIT_PARTIAL = 3


class CliError(ValueError):
    """Fatal command-line level failure (bad combination of inputs)."""


# --------------------------------------------------------------------------
# Report (de)serialization


@dataclass(frozen=True)
class _ReportFile:
    """The keys of a machine report that report reads back."""

    suite: Suite
    metrics: Mapping[str, Any]
    backend: str = "unknown"


_REPORT_CLASSES = {Suite.WINOMT: WinomtReport, Suite.OTSC: OtscReport, Suite.NEUTRAL: TgbiReport}


def report_from_dict(
    payload: Any, source: str
) -> tuple[str, str, TgbiReport | OtscReport | WinomtReport]:
    """Rebuild (suite, backend name, report) from a machine report file: the
    suite picks the report class its metrics are decoded as. Errors name
    source and the field."""
    with file_errors(source, CliError):
        header = decode_document(payload, _ReportFile, CliError)
        cls = _REPORT_CLASSES[header.suite]
        report = decode_document(header.metrics, cls, CliError, "metrics")
    return header.suite.value, header.backend, report


def _format_table(suite: str, named_reports: list) -> str:
    if suite == "winomt":
        return format_winomt_table(named_reports)
    if suite == "otsc":
        return format_otsc_table(named_reports)
    return format_tgbi_table(named_reports)


# --------------------------------------------------------------------------
# generate


def cmd_generate(args: argparse.Namespace) -> int:
    template_path = Path(args.template) if args.template else data_path("otsc_template.json")
    occupations = load_occupations(args.occupations)
    template = OtscTemplate.from_file(template_path)
    sentences = expand_otsc(occupations, template)
    digest = hashlib.sha256()
    write_sentences(args.out, sentences, digest)

    per_quadrant = Counter(sentence.set_id for sentence in sentences)
    inputs = {
        "occupations": file_ref(args.occupations),
        "template": file_ref(template_path),
    }
    counts = {"generated": len(sentences), **{f"quadrant_{q}": n for q, n in per_quadrant.items()}}
    write_sidecar(RunManifest(
        run_id=derive_run_id("generate", inputs),
        command="generate",
        suite=Suite.OTSC.value,
        inputs=inputs,
        output={"path": str(args.out), "sha256": digest.hexdigest(), "records": len(sentences)},
        counts=counts,
    ))
    print(f"generated {len(sentences)} sentences from {len(occupations)} occupations")
    for quadrant in sorted(per_quadrant):
        print(f"  {quadrant}: {per_quadrant[quadrant]}")
    return EXIT_OK


# --------------------------------------------------------------------------
# translate


def cmd_translate(args: argparse.Namespace) -> int:
    default_suite = Suite(args.suite) if args.suite else None
    source_digest = hashlib.sha256()
    sentences = read_sentences(args.sentences, default_suite, source_digest)
    entry = find_backend_entry(args.config, args.backend)
    config = backend_config_from_dict(entry, args.config)
    config_hash = sha256_text(dumps_record(entry))[:16]

    out = Path(args.out)
    journal = Path(str(out) + ".partial")
    if args.fresh:
        journal.unlink(missing_ok=True)

    previous = []
    if not args.fresh:
        if out.exists():
            previous = read_translations(out)
        if journal.exists():
            # a crash mid-write can leave the journal's last line torn
            previous += read_translations(journal, lenient=True)
    known_ids = {s.id for s in sentences}
    done = {r.source_id: r for r in previous
            if r.status is TranslationStatus.OK and r.source_id in known_ids}

    pending = [s for s in sentences if s.id not in done]
    fresh_records = {}
    if pending:
        # opened at the first finished batch, so a run that aborts before
        # translating anything leaves no journal behind
        journal_fh = None
        encode = line_encoder(TranslationRecord)

        def flush(batch):
            nonlocal journal_fh
            if journal_fh is None:
                journal_fh = open(journal, "a", encoding="utf-8")
            journal_fh.write("".join(map(encode, batch)))
            journal_fh.flush()

        try:
            results = translate_batch(pending, config, on_batch=flush)
        finally:
            if journal_fh is not None:
                journal_fh.close()
        fresh_records = {r.source_id: r for r in results}

    merged = [fresh_records.get(s.id) or done[s.id] for s in sentences]
    digest = hashlib.sha256()
    write_translations(out, merged, digest)
    journal.unlink(missing_ok=True)

    failed = sum(1 for r in merged if r.status is TranslationStatus.FAILED)
    counts = {
        "sources": len(sentences),
        "translated_ok": len(merged) - failed,
        "translated_failed": failed,
        "reused": len(done),
    }
    inputs = {"sentences": {"path": args.sentences, "sha256": source_digest.hexdigest()}}
    write_sidecar(RunManifest(
        run_id=derive_run_id("translate", inputs,
                             backend={"name": config.name, "config": config_hash}),
        command="translate",
        suite=default_suite.value if default_suite else None,
        inputs=inputs,
        output={"path": str(out), "sha256": digest.hexdigest(), "records": len(merged)},
        counts=counts,
        backend={"name": config.name, "config_hash": config_hash},
    ))
    print(
        f"translated {counts['translated_ok']}/{len(merged)} ok "
        f"({failed} failed, {len(done)} reused) via {config.name}"
    )
    return EXIT_PARTIAL if failed else EXIT_OK


# --------------------------------------------------------------------------
# evaluate


def cmd_evaluate(args: argparse.Namespace) -> int:
    suite = Suite(args.suite)
    digests = {"sentences": hashlib.sha256(), "translations": hashlib.sha256()}
    sentences = read_sentences(args.sentences, suite, digests["sentences"])
    translations = read_translations(args.translations, digest=digests["translations"])

    # each input is digested as it is read: for the manifest check and for the report
    inputs = {name: {"path": getattr(args, name), "sha256": digest.hexdigest()}
              for name, digest in digests.items()}
    for ref in inputs.values():
        ok, message = verify_against_sidecar(ref["path"], ref["sha256"])
        if not ok:
            if args.no_verify:
                logger.warning("%s (ignored by --no-verify)", message)
            else:
                raise CliError(f"{message}; pass --no-verify to evaluate anyway")
        else:
            logger.info(message)

    sentence_ids = {s.id for s in sentences}
    copies = Counter(t.source_id for t in translations)
    for source_id, n in copies.items():
        if n > 1:
            raise CliError(f"{args.translations}: duplicate source_id {source_id!r}")
    translation_ids = copies.keys()
    if sentence_ids != translation_ids:
        missing = len(sentence_ids - translation_ids)
        extra = len(translation_ids - sentence_ids)
        raise CliError(
            f"id mismatch between sentences and translations "
            f"({missing} missing, {extra} unknown)"
        )

    stereotype_paths = None
    if bool(args.male_stereotypes) != bool(args.female_stereotypes):
        raise CliError("--male-stereotypes and --female-stereotypes must be given together")
    if args.male_stereotypes:
        if suite is not Suite.WINOMT:
            raise CliError("stereotype lists only apply to the winomt suite")
        lists = StereotypeLists.from_files(args.male_stereotypes, args.female_stereotypes)
        sentences = [
            replace(s, stereotype=assign_stereotype(s.occupation, s.gold_gender, lists))
            for s in sentences
        ]
        stereotype_paths = [args.male_stereotypes, args.female_stereotypes]

    if args.pronouns:
        lexicon = PronounLexicon.from_file(args.pronouns)
    elif args.strict:
        lexicon = PronounLexicon.strict()
    else:
        lexicon = PronounLexicon.default()

    index = {s.id: s for s in sentences}
    classified, excluded = classify_batch(translations, index, lexicon)
    if not classified:
        raise CliError("no successful translations to evaluate")

    counts = {
        "sources": len(sentences),
        "translated_ok": len(classified),
        "translated_failed": len(excluded),
        "classified": len(classified),
    }
    if suite is Suite.WINOMT:
        report = compute_winomt(classified, strict_neutral=args.strict,
                                neutral_as_positive=args.neutral_as_positive)
        counts["excluded_unlisted"] = report.excluded_unlisted
    elif suite is Suite.OTSC:
        report = compute_otsc(classified)
    else:
        report = compute_tgbi_report(classified)

    backends_seen = sorted({t.backend for t in translations})
    backend_name = "+".join(backends_seen)
    options = {
        "strict": bool(args.strict),
        "neutral_as_positive": bool(args.neutral_as_positive),
        "stereotype_lists": stereotype_paths,
        "pronouns": args.pronouns,
    }
    run_id = derive_run_id("evaluate", inputs, suite=suite.value, backend=backend_name,
                           options=options)
    payload = {
        "tool": "mtgender",
        "version": tool_version(),
        "run_id": run_id,
        "suite": suite.value,
        "backend": backend_name,
        "options": options,
        # digests only: paths and timestamps live in the manifest sidecar, so
        # identical inputs give a byte-identical report wherever they sit
        "inputs": {k: {"sha256": v["sha256"]} for k, v in inputs.items()},
        "counts": counts,
        "metrics": asdict(report),
    }
    text = json.dumps(payload, ensure_ascii=False, indent=2, sort_keys=True) + "\n"
    table = _format_table(suite.value, [(backend_name, report)])
    # the table first: a --table that cannot be written leaves no report behind
    if args.table:
        atomic_write_text(args.table, table)
    atomic_write_text(args.out, text)
    write_sidecar(RunManifest(
        run_id=run_id,
        command="evaluate",
        suite=suite.value,
        inputs=inputs,
        output={"path": str(args.out), "sha256": sha256_text(text), "records": 1},
        counts=counts,
        backend={"name": backend_name},
    ))
    sys.stdout.write(table)
    if excluded:
        print(f"note: {len(excluded)} failed translations excluded from metrics")
    return EXIT_OK


# --------------------------------------------------------------------------
# report


def cmd_report(args: argparse.Namespace) -> int:
    named_reports = []
    suites = set()
    for path in args.reports:
        suite, backend, report = report_from_dict(load_json(path, CliError), path)
        suites.add(suite)
        named_reports.append((backend, report))
    if len(suites) > 1:
        raise CliError(f"reports mix suites: {', '.join(sorted(suites))}")
    table = _format_table(suites.pop(), named_reports)
    if args.out:
        atomic_write_text(args.out, table)
    sys.stdout.write(table)
    return EXIT_OK


# --------------------------------------------------------------------------
# wiring


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mtgender",
        description="Gender bias evaluation pipeline for Hindi-English translation",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="info-level logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p_generate = sub.add_parser(
        "generate", help="expand an occupation list into the four-quadrant test set"
    )
    p_generate.add_argument("--occupations", required=True, help="one occupation per line")
    p_generate.add_argument("--template", help="template JSON (bundled default when omitted)")
    p_generate.add_argument("--out", required=True, help="output sentences file (JSONL)")
    p_generate.set_defaults(func=cmd_generate)

    p_translate = sub.add_parser("translate", help="translate a sentence file via a backend")
    p_translate.add_argument("--sentences", required=True)
    p_translate.add_argument("--config", required=True, help="backends config file (JSON)")
    p_translate.add_argument("--backend", required=True, help="backend name from the config")
    p_translate.add_argument("--suite", choices=[s.value for s in Suite],
                             help="suite of the sentence file when its records do not say")
    p_translate.add_argument("--out", required=True, help="output translations file (JSONL)")
    p_translate.add_argument("--fresh", action="store_true",
                             help="ignore previous output instead of resuming")
    p_translate.set_defaults(func=cmd_translate)

    p_evaluate = sub.add_parser("evaluate", help="classify translations and compute metrics")
    p_evaluate.add_argument("--sentences", required=True)
    p_evaluate.add_argument("--translations", required=True)
    p_evaluate.add_argument("--suite", required=True, choices=[s.value for s in Suite])
    p_evaluate.add_argument("--out", required=True, help="machine-readable report (JSON)")
    p_evaluate.add_argument("--table", help="also write the formatted table here")
    p_evaluate.add_argument("--strict", action="store_true",
                            help="published pronoun sets only; N counts purely neutral outputs")
    p_evaluate.add_argument("--neutral-as-positive", action="store_true",
                            help="credit gender-neutral outputs as correct instead of misses")
    p_evaluate.add_argument("--male-stereotypes", help="recompute stereotype tags from this list")
    p_evaluate.add_argument("--female-stereotypes")
    p_evaluate.add_argument("--pronouns", help="custom pronoun lexicon (JSON)")
    p_evaluate.add_argument("--no-verify", action="store_true",
                            help="skip manifest digest verification")
    p_evaluate.set_defaults(func=cmd_evaluate)

    p_report = sub.add_parser("report", help="side-by-side table from evaluation reports")
    p_report.add_argument("reports", nargs="+", help="report JSON files (same suite)")
    p_report.add_argument("--out", help="write the table to a file as well")
    p_report.set_defaults(func=cmd_report)

    return parser


def run(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    # ValueError covers the domain errors (CorpusError, TemplateError,
    # BackendError, ClassifyError, MetricsError, CliError) plus malformed JSONL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
    except OSError as exc:  # a rename names its target second: "out.<hex>.tmp" -> "out"
        path = exc.filename if exc.filename2 is None else exc.filename2
        print(f"error: {exc}" if path is None else f"error: {path}: {exc.strerror}",
              file=sys.stderr)
    return EXIT_ABORTED


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
