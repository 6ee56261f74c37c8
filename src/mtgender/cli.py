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
import io
import json
import logging
import sys
from collections import Counter
from dataclasses import asdict, dataclass
from functools import partial
from operator import attrgetter
from pathlib import Path
from typing import Any, Mapping

from .backends import (
    BackendConfig,
    RecordError,
    TranslationRecord,
    TranslationStatus,
    append_translations,
    backend_config_from_dict,
    find_backend_entry,
    iter_translations,
    journal_offset,
    read_translations,
    translate_batch,
)
from .classify import PronounLexicon, classify_gender
from .corpus import (
    OTSC_QUADRANTS,
    SourceSentence,
    StereotypeLists,
    Suite,
    assign_stereotype,
    iter_sentences,
    load_occupations,
    read_sentences,
    write_sentences,
)
from .fileio import (
    atomic_write_text, decode_document, dumps_record, file_errors, line_encoder, load_json,
    sha256_file, sha256_text, write_jsonl,
)
from .manifest import (
    TOOL_NAME, derive_run_id, file_ref, read_sidecar, tool_version, verify_against_sidecar,
    write_sidecar,
)
from .metrics import (
    OtscReport,
    TgbiReport,
    WinomtReport,
    otsc_from_table,
    tgbi_from_table,
    winomt_from_table,
)
from .tables import format_otsc_table, format_tgbi_table, format_winomt_table
from .templates import OtscTemplate, iter_otsc
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


# suite -> (report class, table formatter); each formatter is looked up when
# called, so a wrapper patched over a tables function (as perfbench's tracer
# does) sees the call
_SUITES = {
    Suite.WINOMT: (WinomtReport, lambda named_reports: format_winomt_table(named_reports)),
    Suite.OTSC: (OtscReport, lambda named_reports: format_otsc_table(named_reports)),
    Suite.NEUTRAL: (TgbiReport, lambda named_reports: format_tgbi_table(named_reports)),
}


def report_from_dict(
    payload: Any, source: str
) -> tuple[Suite, str, TgbiReport | OtscReport | WinomtReport]:
    """Rebuild (suite, backend name, report) from a machine report file: the
    suite picks the report class its metrics are decoded as. Errors name
    source and the field."""
    with file_errors(source, CliError):
        header = decode_document(payload, _ReportFile, CliError)
        report = decode_document(header.metrics, _SUITES[header.suite][0], CliError, "metrics")
    return header.suite, header.backend, report


# --------------------------------------------------------------------------
# generate


def cmd_generate(args: argparse.Namespace) -> int:
    template_path = Path(args.template) if args.template else data_path("otsc_template.json")
    occupations = load_occupations(args.occupations)
    template = OtscTemplate.from_file(template_path)
    digest = hashlib.sha256()
    # each sentence is written as it is made; each quadrant has one per occupation
    n = write_sentences(args.out, iter_otsc(occupations, template), digest)

    inputs = {"occupations": file_ref(args.occupations), "template": file_ref(template_path)}
    counts = {"generated": n, **{f"quadrant_{q}": len(occupations) for q in OTSC_QUADRANTS}}
    write_sidecar("generate", derive_run_id("generate", inputs), suite=Suite.OTSC.value,
                  inputs=inputs, out=args.out, sha256=digest.hexdigest(),
                  records=n, counts=counts)
    print(f"generated {n} sentences from {len(occupations)} occupations")
    for quadrant in OTSC_QUADRANTS:
        print(f"  {quadrant}: {len(occupations)}")
    return EXIT_OK


# --------------------------------------------------------------------------
# translate


def _holds(manifest: dict[str, Any], expected: dict[str, Any]) -> bool:
    """Whether manifest has each expected key, with the value and its type."""
    return all(key in manifest and type(manifest[key]) is type(value) and manifest[key] == value
               for key, value in expected.items())


def _previous_run(args: argparse.Namespace, out: Path, journal: Path) -> dict[str, Any] | None:
    """The sidecar of out when the run that wrote it may have left nothing
    pending: not --fresh, no journal, every source translated OK, the same
    command, tool version and suite, and sentences of the digest it records."""
    if args.fresh or journal.exists() or not out.exists():
        return None
    previous = read_sidecar(out) or {}
    n = previous.get("output.records")
    recorded = {"command": "translate", "version": tool_version(), "suite": args.suite,
                "counts.sources": n, "counts.translated_ok": n, "counts.translated_failed": 0}
    # the sentences are digested only once the rest holds
    if type(n) is int and _holds(previous, recorded) and (
            previous.get("inputs.sentences.sha256") == sha256_file(args.sentences)):
        return previous
    return None


def cmd_translate(args: argparse.Namespace) -> int:
    default_suite = Suite(args.suite) if args.suite else None
    out = Path(args.out)
    journal = Path(str(out) + ".partial")
    previous = _previous_run(args, out, journal)
    if previous is None:
        source_digest = hashlib.sha256()
        sentences = read_sentences(args.sentences, default_suite, source_digest)
        source_sha256 = source_digest.hexdigest()
    else:  # the sentences the previous run read: parsed below only if its output is not kept
        sentences, source_sha256 = None, previous["inputs.sentences.sha256"]
    entry = find_backend_entry(args.config, args.backend)
    config = backend_config_from_dict(entry, args.config)
    config_hash = sha256_text(dumps_record(entry))[:16]
    inputs = {"sentences": {"path": args.sentences, "sha256": source_sha256}}
    run_id = derive_run_id("translate", inputs,
                           backend={"name": config.name, "config": config_hash})

    if previous is not None and previous.get("run_id") == run_id and (
            previous.get("output.sha256") == sha256_file(out)):
        # the full path would reuse every record and re-encode the same bytes,
        # so out is left as it is and only its sidecar is rewritten
        n = reused = previous["output.records"]
        failed, sha256 = 0, previous["output.sha256"]
    else:
        if sentences is None:
            sentences = read_sentences(args.sentences, default_suite)
        try:
            n, failed, sha256, reused = _translate_pending(sentences, config, out, journal,
                                                           args.fresh)
        except RecordError as exc:
            raise CliError(f"{args.sentences}: {exc}") from None

    counts = {"sources": n, "translated_ok": n - failed, "translated_failed": failed,
              "reused": reused}
    write_sidecar("translate", run_id, suite=args.suite, inputs=inputs, out=out, sha256=sha256,
                  records=n, counts=counts,
                  backend={"name": config.name, "config_hash": config_hash})
    print(f"translated {n - failed}/{n} ok ({failed} failed, {reused} reused) via {config.name}")
    return EXIT_PARTIAL if failed else EXIT_OK


def _translate_pending(sentences: list[SourceSentence], config: BackendConfig, out: Path,
                       journal: Path, fresh: bool) -> tuple[int, int, str, int]:
    """Translate what the output and the journal hold no OK record for, and
    write the output in sentence order: (its records, how many of them
    failed, its sha256, how many were reused)."""
    reused = {}  # source id -> OK record; a later record replaces an earlier one
    if fresh:
        journal.unlink(missing_ok=True)
    elif out.exists() or journal.exists():
        known_ids = {s.id for s in sentences}
        # the OK records of the output, then of the journal, read leniently:
        # a crash mid-write can leave its last line torn
        for path, lenient in ((out, False), (journal, True)):
            if path.exists():
                reused.update((r.source_id, r) for r in read_translations(path, lenient)
                              if r.status is TranslationStatus.OK and r.source_id in known_ids)

    pending = [s for s in sentences if s.id not in reused]
    # this run's records are kept only in the journal, from start on, appended at each
    # finished batch: a run that aborts before translating anything leaves none behind
    start = journal_offset(journal)
    failed = (translate_batch(pending, config, partial(append_translations, journal))
              if pending else 0)
    # merged while written: each source's reused record, else the next line
    # this run journaled, copied as it is, since a journal line is canonical
    encode, digest = line_encoder(TranslationRecord), hashlib.sha256()
    with (open(journal, "rb") if pending else io.BytesIO()) as fh:
        fh.seek(start)
        new_lines = map(bytes.decode, fh)
        n = write_jsonl(out, (encode(reused[s.id]) if s.id in reused else next(new_lines)
                              for s in sentences), digest)
    journal.unlink(missing_ok=True)
    return n, failed, digest.hexdigest(), len(reused)


# --------------------------------------------------------------------------
# evaluate


def cmd_evaluate(args: argparse.Namespace) -> int:
    suite = Suite(args.suite)
    digests = {"sentences": hashlib.sha256(), "translations": hashlib.sha256()}
    # the sentences are read once and none is held: of each only its id and
    # its (group, gold) key are kept, one tuple per distinct key. The lists
    # are loaded once the sentences are read, whose errors come first, so
    # with lists a key holds the occupation, which they map to its stereotype
    group = attrgetter("set_id" if suite is not Suite.WINOMT else
                       "occupation" if args.male_stereotypes else "stereotype")
    keys: dict[tuple, tuple] = {}
    index = {s.id: keys.setdefault(key, key)
             for s in iter_sentences(args.sentences, suite, digests["sentences"])
             for key in [(group(s), s.gold_gender)]}

    stereotype_paths = None
    if bool(args.male_stereotypes) != bool(args.female_stereotypes):
        raise CliError("--male-stereotypes and --female-stereotypes must be given together")
    if args.male_stereotypes:
        if suite is not Suite.WINOMT:
            raise CliError("stereotype lists only apply to the winomt suite")
        lists = StereotypeLists.from_files(args.male_stereotypes, args.female_stereotypes)
        keys = {key: (assign_stereotype(*key, lists), key[1]) for key in keys}
        stereotype_paths = [args.male_stereotypes, args.female_stereotypes]

    if args.pronouns:
        lexicon = PronounLexicon.from_file(args.pronouns)
    elif args.strict:
        lexicon = PronounLexicon.strict()
    else:
        lexicon = PronounLexicon.default()

    # the translations are read once and none is held: each OK one of a known
    # id is classified into its cell, and of each record only its id and backend kept
    copies, backends, cells, failed = {}, set(), Counter(), 0
    for t in iter_translations(args.translations, digest=digests["translations"]):
        copies[t.source_id] = copies.get(t.source_id, 0) + 1
        backends.add(t.backend)
        if t.status is not TranslationStatus.OK:
            failed += 1
        elif t.source_id in index:
            cells[(*keys[index[t.source_id]], classify_gender(t.target_text, lexicon)[0])] += 1

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

    for source_id, n in copies.items():
        if n > 1:
            raise CliError(f"{args.translations}: duplicate source_id {source_id!r}")
    if index.keys() != copies.keys():
        raise CliError(f"{args.translations}: ids do not match {args.sentences} "
                       f"({len(index.keys() - copies.keys())} missing, "
                       f"{len(copies.keys() - index.keys())} unknown)")

    counted = sum(cells.values())
    counts = {"sources": len(index), "translated_ok": counted, "translated_failed": failed,
              "classified": counted}
    # a file with nothing to count, or too little for a metric, is named
    with file_errors(args.translations, CliError):
        if not cells:
            raise CliError("no successful translations to evaluate")
        if suite is Suite.WINOMT:
            report = winomt_from_table(cells, strict_neutral=args.strict,
                                       neutral_as_positive=args.neutral_as_positive)
            counts["excluded_unlisted"] = report.excluded_unlisted
        elif suite is Suite.OTSC:
            report = otsc_from_table(cells)
        else:
            report = tgbi_from_table(cells)

    backend_name = "+".join(sorted(backends))
    options = {
        "strict": bool(args.strict),
        "neutral_as_positive": bool(args.neutral_as_positive),
        "stereotype_lists": stereotype_paths,
        "pronouns": args.pronouns,
    }
    run_id = derive_run_id("evaluate", inputs, suite=suite.value, backend=backend_name,
                           options=options)
    payload = {
        "tool": TOOL_NAME,
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
    table = _SUITES[suite][1]([(backend_name, report)])
    # the table first: a --table that cannot be written leaves no report behind
    if args.table:
        atomic_write_text(args.table, table)
    atomic_write_text(args.out, text)
    write_sidecar("evaluate", run_id, suite=suite.value, inputs=inputs, out=args.out,
                  sha256=sha256_text(text), records=1, counts=counts,
                  backend={"name": backend_name})
    sys.stdout.write(table)
    if failed:
        print(f"note: {failed} failed translations excluded from metrics")
    return EXIT_OK


# --------------------------------------------------------------------------
# report


def cmd_report(args: argparse.Namespace) -> int:
    suite, named_reports = None, []
    for path in args.reports:
        this_suite, backend, report = report_from_dict(load_json(path, CliError), path)
        if suite not in (None, this_suite):
            raise CliError(f"{path}: reports mix suites: {this_suite.value} here, "
                           f"{suite.value} in {args.reports[0]}")
        suite = this_suite
        named_reports.append((backend, report))
    table = _SUITES[suite][1](named_reports)
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


def error_line(exc: ValueError | OSError) -> str:
    """The line that reports exc: "error: <path>: <strerror>" for an OSError
    on a path, a rename's target ("out.<hex>.tmp" -> "out"); else "error:
    <exc>", which for a domain error (CorpusError, TemplateError, BackendError,
    ClassifyError, MetricsError, CliError) or malformed JSONL names the file."""
    path = exc.filename2 or exc.filename if isinstance(exc, OSError) else None
    return f"error: {exc}" if path is None else f"error: {path}: {exc.strerror}"


def run(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(error_line(exc), file=sys.stderr)
    return EXIT_ABORTED


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
