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
from dataclasses import asdict, fields, replace
from pathlib import Path
from typing import Any, get_type_hints

from .backends import (
    TranslationRecord,
    TranslationStatus,
    find_backend_entry,
    load_backend_config,
    read_translations,
    translate_batch,
    write_translations,
)
from .classify import ClassifyError, PronounLexicon, classify_batch
from .corpus import (
    CorpusError,
    StereotypeLists,
    Suite,
    assign_stereotype,
    load_occupations,
    read_sentences,
    write_sentences,
)
from .fileio import atomic_write_text, dumps_record, line_encoder, sha256_text
from .manifest import (
    RunManifest,
    derive_run_id,
    file_ref,
    tool_version,
    verify_against_sidecar,
    write_sidecar,
)
from .metrics import (
    MetricsError,
    OtscReport,
    Proportions,
    QuadrantStats,
    SetBalance,
    TgbiReport,
    WinomtReport,
    compute_otsc,
    compute_tgbi_report,
    compute_winomt,
)
from .tables import format_otsc_table, format_tgbi_table, format_winomt_table
from .templates import OtscTemplate, TemplateError, expand_otsc
from .resources import data_path

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_ABORTED = 1
EXIT_PARTIAL = 3


class CliError(ValueError):
    """Fatal command-line level failure (bad combination of inputs)."""


# --------------------------------------------------------------------------
# Report (de)serialization


def _report_metrics_dict(report: TgbiReport | OtscReport | WinomtReport) -> dict:
    """The report's dataclass fields, with the per-set proportions flattened;
    excluded_failed is stored under counts instead."""
    metrics = asdict(report)
    metrics.pop("excluded_failed", None)
    for entry in metrics.get("per_set", {}).values():
        entry.update(entry.pop("proportions"))
    return metrics


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


_FIELD_KINDS = {
    float: ("a number", _is_number),
    float | None: ("a number or null", lambda v: v is None or _is_number(v)),
    int: ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    dict: ("an object", lambda v: isinstance(v, dict)),
}


def report_from_dict(
    payload: Any, source: str
) -> tuple[str, str, TgbiReport | OtscReport | WinomtReport]:
    """Rebuild (suite, backend name, report) from a machine report file.

    Raises CliError naming source and the field when a field is missing or
    mistyped.
    """

    def get(*path: str, kind: Any = dict) -> Any:
        """payload[path[0]][path[1]]..., checked against kind (a key of _FIELD_KINDS)."""
        node = payload
        for depth, key in enumerate(path):
            if not isinstance(node, dict):
                where = ".".join(path[:depth]) or "the report"
                raise CliError(f"{source}: {where} must be an object, not {type(node).__name__}")
            if key not in node:
                raise CliError(f"{source}: report is missing {'.'.join(path[: depth + 1])}")
            node = node[key]
        expected, matches = _FIELD_KINDS[kind]
        if not matches(node):
            raise CliError(f"{source}: {'.'.join(path)} must be {expected}, not {node!r}")
        return node

    def fields_of(cls: type, *path: str, skip: tuple[str, ...] = ()) -> dict[str, Any]:
        """The dataclass fields of cls, read from the object at path."""
        hints = get_type_hints(cls)
        return {f.name: get(*path, f.name, kind=hints[f.name])
                for f in fields(cls) if f.name not in skip}

    if not isinstance(payload, dict):
        raise CliError(f"{source}: the report must be an object, not {type(payload).__name__}")
    suite = payload.get("suite")
    backend = payload.get("backend", "unknown")
    counts = get("counts") if "counts" in payload else {}
    failed = get("counts", "translated_failed", kind=int) if "translated_failed" in counts else 0
    if suite == "winomt":
        report: TgbiReport | OtscReport | WinomtReport = WinomtReport(
            **fields_of(WinomtReport, "metrics", skip=("excluded_failed",)),
            excluded_failed=failed,
        )
    elif suite == "otsc":
        report = OtscReport(
            quadrants={
                quadrant: QuadrantStats(**fields_of(QuadrantStats, "metrics", "quadrants", quadrant))
                for quadrant in get("metrics", "quadrants")
            },
            excluded_failed=failed,
        )
    elif suite == "neutral":
        report = TgbiReport(
            per_set={
                set_id: SetBalance(
                    proportions=Proportions(**fields_of(Proportions, "metrics", "per_set", set_id)),
                    **fields_of(SetBalance, "metrics", "per_set", set_id, skip=("proportions",)),
                )
                for set_id in get("metrics", "per_set")
            },
            tgbi=get("metrics", "tgbi", kind=float),
        )
    else:
        raise CliError(f"{source}: report has unknown suite {suite!r}")
    return suite, backend, report


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

    per_quadrant: dict[str, int] = {}
    for sentence in sentences:
        per_quadrant[sentence.set_id] = per_quadrant.get(sentence.set_id, 0) + 1
    inputs = {
        "occupations": file_ref(args.occupations),
        "template": file_ref(template_path),
    }
    counts = {"generated": len(sentences), **{f"quadrant_{q}": n for q, n in per_quadrant.items()}}
    run_id = derive_run_id({
        "command": "generate",
        "inputs": {k: v["sha256"] for k, v in inputs.items()},
        "version": tool_version(),
    })
    write_sidecar(RunManifest(
        run_id=run_id,
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
    sentences = read_sentences(args.sentences, default_suite)
    config = load_backend_config(args.config, args.backend)
    config_hash = sha256_text(dumps_record(find_backend_entry(args.config, args.backend)))[:16]

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
    inputs = {"sentences": file_ref(args.sentences)}
    run_id = derive_run_id({
        "command": "translate",
        "backend": {"name": config.name, "config": config_hash},
        "inputs": {k: v["sha256"] for k, v in inputs.items()},
        "version": tool_version(),
    })
    write_sidecar(RunManifest(
        run_id=run_id,
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

    # each input is digested once: for the manifest check and for the report
    inputs = {
        "sentences": file_ref(args.sentences),
        "translations": file_ref(args.translations),
    }
    for ref in inputs.values():
        ok, message = verify_against_sidecar(ref["path"], ref["sha256"])
        if not ok:
            if args.no_verify:
                logger.warning("%s (ignored by --no-verify)", message)
            else:
                raise CliError(f"{message}; pass --no-verify to evaluate anyway")
        else:
            logger.info(message)

    sentences = read_sentences(args.sentences, suite)
    translations = read_translations(args.translations)

    sentence_ids = {s.id for s in sentences}
    translation_ids = {t.source_id for t in translations}
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
        report = compute_winomt(
            classified,
            strict_neutral=args.strict,
            neutral_as_positive=args.neutral_as_positive,
            excluded_failed=len(excluded),
        )
        counts["excluded_unlisted"] = report.excluded_unlisted
    elif suite is Suite.OTSC:
        report = compute_otsc(classified, excluded_failed=len(excluded))
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
    run_id = derive_run_id({
        "command": "evaluate",
        "suite": suite.value,
        "backend": backend_name,
        "options": options,
        "inputs": {k: v["sha256"] for k, v in inputs.items()},
        "version": tool_version(),
    })
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
        "metrics": _report_metrics_dict(report),
    }
    atomic_write_text(
        args.out, json.dumps(payload, ensure_ascii=False, indent=2, sort_keys=True) + "\n"
    )
    write_sidecar(RunManifest(
        run_id=run_id,
        command="evaluate",
        suite=suite.value,
        inputs=inputs,
        output={**file_ref(args.out), "records": 1},
        counts=counts,
        backend={"name": backend_name},
    ))

    table = _format_table(suite.value, [(backend_name, report)])
    if args.table:
        atomic_write_text(args.table, table)
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
        try:
            payload = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise CliError(f"{path}: cannot read report ({exc})") from exc
        suite, backend, report = report_from_dict(payload, path)
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
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ABORTED


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
