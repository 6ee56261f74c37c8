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
import os
import sys
from collections import Counter, deque
from contextlib import closing
from dataclasses import asdict, dataclass
from functools import partial
from itertools import islice
from operator import attrgetter
from pathlib import Path
from typing import Any, Iterator, Mapping

from .backends import (
    BackendConfig,
    BackendKind,
    RecordError,
    TranslationRecord,
    TranslationStatus,
    append_translations,
    backend_config_from_dict,
    find_backend_entry,
    iter_translations,
    journal_offset,
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


def _refuse_inputs_as_outputs(args: argparse.Namespace, outputs: str, inputs: str) -> None:
    """End a stage before it reads anything when an output option names the
    same file as an input option, which it would replace; a link counts."""
    def paths(option: str) -> list[str]:  # the paths given that exist; option as typed
        value = getattr(args, option.lstrip("-").replace("-", "_"))
        return [p for p in (value if type(value) is list else [value]) if p and os.path.exists(p)]
    for out in (out for option in outputs.split() for out in paths(option)):
        for option in inputs.split():
            if any(os.path.samefile(out, path) for path in paths(option)):
                raise CliError(f"{out}: is also the {option} input")


# --------------------------------------------------------------------------
# generate


def cmd_generate(args: argparse.Namespace) -> int:
    _refuse_inputs_as_outputs(args, "--out", "--occupations --template")
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


def _previous_run(args: argparse.Namespace, out: Path, journal: Path,
                  sidecar: dict[str, Any], run_id: str) -> dict[str, Any] | None:
    """The sidecar of out when the run that wrote out is this one, run_id,
    and left nothing pending: no journal, every source translated OK, the
    same --suite, and out still of the digest it records."""
    n = sidecar.get("output.records")
    counts = [sidecar.get(f"counts.{key}") for key in ("sources", "translated_ok",
                                                       "translated_failed")]
    if (sidecar.get("run_id") == run_id and not journal.exists() and type(n) is int
            and counts == [n, n, 0] and sidecar.get("suite") == args.suite
            and sidecar.get("output.sha256") == sha256_file(out)):
        return sidecar
    return None


def cmd_translate(args: argparse.Namespace) -> int:
    _refuse_inputs_as_outputs(args, "--out", "--sentences --config")
    default_suite = Suite(args.suite) if args.suite else None
    out = Path(args.out)
    journal = Path(str(out) + ".partial")
    entry = find_backend_entry(args.config, args.backend)
    config = backend_config_from_dict(entry, args.config)
    config_hash = sha256_text(dumps_record(entry))[:16]

    def run_of(source_sha256: Any, name: Any = config.name, config_hash: Any = config_hash
               ) -> tuple[dict[str, Any], str]:  # (inputs, run id) of a translate run
        inputs = {"sentences": {"path": args.sentences, "sha256": source_sha256}}
        return inputs, derive_run_id("translate", inputs,
                                     backend={"name": name, "config": config_hash})

    # after the config, whose errors come first: out's sidecar names a run when its
    # run id is the one its own sentences digest, backend name and config hash give;
    # only then are the sentences digested, and if that run is another, none of
    # out's records is reused
    sidecar = {} if args.fresh or not out.exists() else read_sidecar(out) or {}
    previous, reused_from = None, () if args.fresh else (out, journal)
    if sidecar.get("run_id") == run_of(*map(sidecar.get, (
            "inputs.sentences.sha256", "backend.name", "backend.config_hash")))[1]:
        inputs, run_id = run_of(sha256_file(args.sentences))
        reused_from = reused_from if run_id == sidecar["run_id"] else (journal,)
        previous = _previous_run(args, out, journal, sidecar, run_id)
    if previous is not None:
        # the full path would reuse every record and re-encode the same bytes,
        # so out is left as it is and only its sidecar is rewritten
        n = reused = previous["output.records"]
        failed, sha256 = 0, previous["output.sha256"]
    else:
        if config.kind is BackendKind.HTTP:  # every line is checked before a paid request
            deque(iter_sentences(args.sentences, default_suite), maxlen=0)
        source_digest = hashlib.sha256()
        # the sentences are read as they are translated: a bad line ends a
        # mock or replay run there, with its finished batches journaled
        with closing(iter_sentences(args.sentences, default_suite, source_digest)) as sentences:
            try:
                n, failed, sha256, reused = _translate_pending(sentences, config, out, journal,
                                                               reused_from)
            except RecordError as exc:
                raise CliError(f"{args.sentences}: {exc}") from None
        inputs, run_id = run_of(source_digest.hexdigest())

    counts = {"sources": n, "translated_ok": n - failed, "translated_failed": failed,
              "reused": reused}
    write_sidecar("translate", run_id, suite=args.suite, inputs=inputs, out=out, sha256=sha256,
                  records=n, counts=counts,
                  backend={"name": config.name, "config_hash": config_hash})
    print(f"translated {n - failed}/{n} ok ({failed} failed, {reused} reused) via {config.name}")
    return EXIT_PARTIAL if failed else EXIT_OK


def _translate_pending(sentences: Iterator[SourceSentence], config: BackendConfig, out: Path,
                       journal: Path, reused_from: tuple[Path, ...]) -> tuple[int, int, str, int]:
    """Translate, as they are read, the sentences with no OK record of this
    backend in the files of reused_from, and write the output in sentence order:
    (its records, how many of them failed, its sha256, how many were reused)."""
    if journal not in reused_from:  # --fresh
        journal.unlink(missing_ok=True)
    # source id -> its last OK record, of the output and then of the journal,
    # which is read leniently: a crash mid-write can leave its last line torn
    reusable = {r.source_id: r for path in reused_from if path.exists()
                for r in iter_translations(path, path == journal)
                if r.status is TranslationStatus.OK and r.backend == config.name}

    # of each sentence only whether it is reused is kept, and the reused
    # records in sentence order
    is_reused, reused = bytearray(), []

    def pending() -> Iterator[SourceSentence]:
        for s in sentences:
            record = reusable.pop(s.id, None)
            is_reused.append(record is not None)
            if record is None:
                yield s
            else:
                reused.append(record)

    out.parent.mkdir(parents=True, exist_ok=True)  # before any request, not at the first append
    # this run's records are kept only in the journal, from start on, appended at each
    # finished batch: a run that aborts before translating anything leaves none behind
    start = journal_offset(journal)
    translating = pending()
    # the first pending sentence is looked for first: with none, no client
    # is built and no replay file read
    first = list(islice(translating, 1))
    failed = (translate_batch(_handed_on(first, translating), config,
                              partial(append_translations, journal)) if first else 0)
    # merged while written: each reused source's record, else the next line
    # this run journaled, copied as it is, since a journal line is canonical
    encode, digest = line_encoder(TranslationRecord), hashlib.sha256()
    reused_lines = map(encode, reused)
    with (open(journal, "rb") if len(reused) < len(is_reused) else io.BytesIO()) as fh:
        fh.seek(start)
        new_lines = map(bytes.decode, fh)
        n = write_jsonl(out, (next(reused_lines) if flag else next(new_lines)
                              for flag in is_reused), digest)
    journal.unlink(missing_ok=True)
    return n, failed, digest.hexdigest(), len(reused)


def _handed_on(first: list[SourceSentence], rest: Iterator[SourceSentence]
               ) -> Iterator[SourceSentence]:
    """The sentences of first, which keeps none it has yielded, then rest's."""
    while first:
        yield first.pop(0)
    yield from rest


# --------------------------------------------------------------------------
# evaluate


class _Unmatched(ValueError):
    """A translation of no sentence, or a sentence of none; args[0]: whether
    the sentences were read to their end."""


def _tally(sentences: Iterator[SourceSentence], translations: Iterator[TranslationRecord],
           group: Any, lexicon: PronounLexicon) -> tuple[set[str], Counter, int]:
    """(backends, cells, failed) of the translations: each OK one is classified
    into its sentence's (group, gold, predicted) cell. The (group, gold) key is
    taken from ahead, which keeps the key of each sentence read past, else the
    sentences are read up to the translation's id; for a file in sentence
    order ahead is empty between translations. _Unmatched at an id not found
    or a sentence left over."""
    backends, cells, failed, ahead = set(), Counter(), 0, {}
    for t in translations:
        while t.source_id not in ahead:
            s = next(sentences, None)
            if s is None:
                raise _Unmatched(True)
            ahead[s.id] = group(s), s.gold_gender
        key = ahead.pop(t.source_id)
        backends.add(t.backend)
        if t.status is not TranslationStatus.OK:
            failed += 1
        else:
            cells[(*key, classify_gender(t.target_text, lexicon)[0])] += 1
    if ahead or next(sentences, None) is not None:
        raise _Unmatched(False)
    return backends, cells, failed


def _lists(args: argparse.Namespace, suite: Suite) -> StereotypeLists | None:
    if bool(args.male_stereotypes) != bool(args.female_stereotypes):
        raise CliError("--male-stereotypes and --female-stereotypes must be given together")
    if not args.male_stereotypes:
        return None
    if suite is not Suite.WINOMT:
        raise CliError("stereotype lists only apply to the winomt suite")
    return StereotypeLists.from_files(args.male_stereotypes, args.female_stereotypes)


def _lexicon(args: argparse.Namespace) -> PronounLexicon:
    if args.pronouns:
        return PronounLexicon.from_file(args.pronouns)
    return PronounLexicon.strict() if args.strict else PronounLexicon.default()


def cmd_evaluate(args: argparse.Namespace) -> int:
    _refuse_inputs_as_outputs(args, "--out --table", "--sentences --translations --pronouns "
                              "--male-stereotypes --female-stereotypes")
    if args.table and os.path.realpath(args.table) == os.path.realpath(args.out):
        raise CliError(f"{args.table}: is also the --out output")
    suite = Suite(args.suite)

    def read(warn: bool = True) -> tuple[dict[str, Any], Iterator, Iterator]:
        """(digests, sentences, translations): a fresh read of each file, digested as read."""
        digests = {"sentences": hashlib.sha256(), "translations": hashlib.sha256()}
        return (digests, iter_sentences(args.sentences, suite, digests["sentences"], warn),
                iter_translations(args.translations, digest=digests["translations"]))

    # the lists and the lexicon are loaded first, then both files are read
    # once, joined by id; with lists, each sentence maps to its stereotype
    lexicon, error, ids, copies = None, None, set(), {}
    try:
        digests, sentences, translations = read()
        lists, lexicon = _lists(args, suite), _lexicon(args)
        group = (attrgetter("set_id" if suite is not Suite.WINOMT else "stereotype")
                 if lists is None else
                 lambda s: assign_stereotype(s.occupation, s.gold_gender, lists))
        backends, cells, failed = _tally(sentences, translations, group, lexicon)
    except (ValueError, OSError) as exc:
        # a second read counts nothing: it names the first error in README's
        # order, the sentences' set-id warnings logged once, and else this one
        error, ended = exc, isinstance(exc, _Unmatched) and exc.args[0]
        digests, sentences, translations = read(warn=not ended)
        if lexicon is None:  # the lists', else the lexicon's, error comes
            deque(sentences, maxlen=0)  # next, after the sentences' own
            raise
        ids = {s.id for s in sentences}
        copies = Counter(t.source_id for t in translations)

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
    if ids != copies.keys():
        raise CliError(f"{args.translations}: ids do not match {args.sentences} "
                       f"({len(ids - copies.keys())} missing, {len(copies.keys() - ids)} unknown)")
    if error is not None:
        raise error

    # every translation is now of a sentence, each sentence's once
    counted = sum(cells.values())
    counts = {"sources": counted + failed, "translated_ok": counted, "translated_failed": failed,
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
        "stereotype_lists": None if lists is None else [args.male_stereotypes,
                                                        args.female_stereotypes],
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
    _refuse_inputs_as_outputs(args, "--out", "reports")
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
    except KeyboardInterrupt:  # temp files are gone, the journal holds each finished batch
        print("error: interrupted", file=sys.stderr)
    return EXIT_ABORTED


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
