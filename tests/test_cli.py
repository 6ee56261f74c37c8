import codecs
import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import weakref
from dataclasses import asdict, replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mtgender
from mtgender.backends import TranslationRecord, TranslationStatus, read_translations
from mtgender.classify import ClassifiedRecord, PronounLexicon, classify_gender
from mtgender.cli import EXIT_ABORTED, EXIT_OK, EXIT_PARTIAL, run
from mtgender.corpus import (
    NEUTRAL_SET_IDS, OTSC_QUADRANTS, GenderLabel, ReferencedEntity, SourceSentence,
    StereotypeLists, Stereotype, Suite, assign_stereotype, write_sentences,
)
from mtgender.fileio import line_encoder
from mtgender.metrics import MetricsError, compute_otsc, compute_tgbi_report, compute_winomt
from mtgender.resources import data_path

from conftest import FEMALE_OCC, MALE_OCC, build_winomt_corpus, write_translations


@pytest.fixture
def otsc_setup(tmp_path, backends_config):
    occupations = tmp_path / "occ.txt"
    occupations.write_text("डॉक्टर\nवकील\nनर्स\nमाली\n", encoding="utf-8")
    sentences = tmp_path / "sentences.jsonl"
    assert run(["generate", "--occupations", str(occupations), "--out", str(sentences)]) == EXIT_OK
    return occupations, sentences


def read_report(path):
    return json.loads(path.read_text(encoding="utf-8"))


class TestGenerate:
    def test_counts_and_manifest(self, otsc_setup, capsys):
        _, sentences = otsc_setup
        assert sentences.exists()
        manifest = read_report(sentences.with_name(sentences.name + ".manifest.json"))
        assert manifest["output"]["sha256"] == hashlib.sha256(sentences.read_bytes()).hexdigest()
        lines = sentences.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 16

    def test_regeneration_is_byte_identical(self, tmp_path, otsc_setup):
        occupations, sentences = otsc_setup
        again = tmp_path / "again.jsonl"
        assert run(["generate", "--occupations", str(occupations), "--out", str(again)]) == EXIT_OK
        assert again.read_bytes() == sentences.read_bytes()

    def test_empty_occupations_aborts(self, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("", encoding="utf-8")
        out = tmp_path / "out.jsonl"
        assert run(["generate", "--occupations", str(empty), "--out", str(out)]) == EXIT_ABORTED
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("edit, complaint", [
        ({"skeleton": 5}, "skeleton must be a string, not 5"),
        ({"verb_male_friend": None}, "verb_male_friend must be a string, not None"),
        ({"occupation_slot": ["occupation"]}, "occupation_slot must be a string, not ['occupation']"),
        ({"skeleton": "{prefix} {possessive} {verb}"},
         "skeleton must contain the {occupation} slot exactly once"),
    ])
    def test_malformed_template_is_an_error_not_a_traceback(
        self, tmp_path, otsc_setup, capsys, edit, complaint
    ):
        occupations, _ = otsc_setup
        template = json.loads(data_path("otsc_template.json").read_text(encoding="utf-8"))
        path = tmp_path / "template.json"
        path.write_text(json.dumps({**template, **edit}), encoding="utf-8")
        capsys.readouterr()
        assert run(["generate", "--occupations", str(occupations), "--template", str(path),
                    "--out", str(tmp_path / "out.jsonl")]) == EXIT_ABORTED
        assert capsys.readouterr().err == f"error: {path}: {complaint}\n"

    def test_custom_template(self, tmp_path):
        template = {
            "skeleton": "{prefix} {possessive} साथी {occupation} {verb}",
            "prefix_male_speaker": "वह कहता",
            "prefix_female_speaker": "वह कहती",
            "possessive_male_friend": "मेरा",
            "possessive_female_friend": "मेरी",
            "verb_male_friend": "बना",
            "verb_female_friend": "बनी",
        }
        template_path = tmp_path / "template.json"
        template_path.write_text(json.dumps(template, ensure_ascii=False), encoding="utf-8")
        occupations = tmp_path / "occ.txt"
        occupations.write_text("डॉक्टर\n", encoding="utf-8")
        out = tmp_path / "out.jsonl"
        assert run(["generate", "--occupations", str(occupations),
                    "--template", str(template_path), "--out", str(out)]) == EXIT_OK
        first = json.loads(out.read_text(encoding="utf-8").splitlines()[0])
        assert "साथी" in first["text"]


class TestTranslate:
    def test_mock_backend_all_ok(self, tmp_path, otsc_setup, backends_config):
        _, sentences = otsc_setup
        out = tmp_path / "tr.jsonl"
        code = run(["translate", "--sentences", str(sentences), "--config",
                    str(backends_config), "--backend", "echo-gold", "--out", str(out)])
        assert code == EXIT_OK
        records = read_translations(out)
        assert len(records) == 16
        assert all(r.status is TranslationStatus.OK for r in records)
        manifest = read_report(Path(f"{out}.manifest.json"))
        assert manifest["output"]["sha256"] == hashlib.sha256(out.read_bytes()).hexdigest()

    def test_replay_missing_ids_partial_exit(self, tmp_path, otsc_setup, backends_config):
        _, sentences = otsc_setup
        full = tmp_path / "full.jsonl"
        assert run(["translate", "--sentences", str(sentences), "--config",
                    str(backends_config), "--backend", "echo-gold", "--out", str(full)]) == EXIT_OK
        replay = tmp_path / "replay.jsonl"
        kept = read_translations(full)[:-3]
        write_translations(replay, kept)
        out = tmp_path / "tr.jsonl"
        code = run(["translate", "--sentences", str(sentences), "--config",
                    str(backends_config), "--backend", "replay", "--out", str(out)])
        assert code == EXIT_PARTIAL
        records = read_translations(out)
        assert len(records) == 16
        failed = [r for r in records if r.status is TranslationStatus.FAILED]
        assert len(failed) == 3

    def test_resume_after_interrupt(self, tmp_path, otsc_setup, backends_config, capsys):
        _, sentences = otsc_setup
        clean = tmp_path / "clean.jsonl"
        assert run(["translate", "--sentences", str(sentences), "--config",
                    str(backends_config), "--backend", "echo-gold", "--out", str(clean)]) == EXIT_OK
        full = read_translations(clean)

        # simulate an interrupted run: only the first 10 records made it out
        out = tmp_path / "resumed.jsonl"
        write_translations(out, full[:10])
        code = run(["translate", "--sentences", str(sentences), "--config",
                    str(backends_config), "--backend", "echo-gold", "--out", str(out)])
        assert code == EXIT_OK
        assert "10 reused" in capsys.readouterr().out
        resumed = read_translations(out)
        assert [r.source_id for r in resumed] == [r.source_id for r in full]
        assert out.read_bytes() == clean.read_bytes()

    def test_resume_retries_previous_failures(self, tmp_path, otsc_setup, backends_config):
        _, sentences = otsc_setup
        replay = tmp_path / "replay.jsonl"
        clean = tmp_path / "clean.jsonl"
        assert run(["translate", "--sentences", str(sentences), "--config",
                    str(backends_config), "--backend", "echo-gold", "--out", str(clean)]) == EXIT_OK
        full = read_translations(clean)
        write_translations(replay, full[:-3])
        out = tmp_path / "tr.jsonl"
        assert run(["translate", "--sentences", str(sentences), "--config",
                    str(backends_config), "--backend", "replay", "--out",
                    str(out)]) == EXIT_PARTIAL
        write_translations(replay, full)  # replay file now complete
        assert run(["translate", "--sentences", str(sentences), "--config",
                    str(backends_config), "--backend", "replay", "--out", str(out)]) == EXIT_OK
        records = read_translations(out)
        assert all(r.status is TranslationStatus.OK for r in records)
        assert [r.source_id for r in records] == [r.source_id for r in full]

    def test_journal_from_crashed_run_is_reused(self, tmp_path, otsc_setup, backends_config,
                                                capsys):
        _, sentences = otsc_setup
        clean = tmp_path / "clean.jsonl"
        assert run(["translate", "--sentences", str(sentences), "--config",
                    str(backends_config), "--backend", "echo-gold", "--out", str(clean)]) == EXIT_OK
        full = read_translations(clean)

        out = tmp_path / "tr.jsonl"
        journal = tmp_path / "tr.jsonl.partial"
        write_translations(journal, full[:5])
        with open(journal, "a", encoding="utf-8") as fh:
            fh.write('{"source_id": "otsc-')  # torn line from the crash
        code = run(["translate", "--sentences", str(sentences), "--config",
                    str(backends_config), "--backend", "echo-gold", "--out", str(out)])
        assert code == EXIT_OK
        assert "5 reused" in capsys.readouterr().out
        assert not journal.exists()
        assert out.read_bytes() == clean.read_bytes()

    def test_journal_torn_inside_a_character_is_reused(self, tmp_path, otsc_setup,
                                                       backends_config, capsys):
        _, sentences = otsc_setup
        clean = tmp_path / "clean.jsonl"
        assert run(["translate", "--sentences", str(sentences), "--config",
                    str(backends_config), "--backend", "echo-gold", "--out", str(clean)]) == EXIT_OK
        out = tmp_path / "tr.jsonl"
        journal = tmp_path / "tr.jsonl.partial"
        torn = '{"source_id": "otsc-डॉक्टर'.encode("utf-8")[:-1]  # cut inside a character
        journal.write_bytes(b"".join(clean.read_bytes().splitlines(keepends=True)[:5]) + torn)
        code = run(["translate", "--sentences", str(sentences), "--config",
                    str(backends_config), "--backend", "echo-gold", "--out", str(out)])
        assert code == EXIT_OK
        assert "5 reused" in capsys.readouterr().out
        assert out.read_bytes() == clean.read_bytes()

    def test_a_torn_journal_tail_does_not_swallow_the_next_record(self, tmp_path, capsys):
        """A run that appends to a journal whose last line a crash tore ends
        that line first, so a resume reuses every record the run journaled."""
        corpus = build_winomt_corpus(4)
        neutral = SourceSentence("n-1", "वह डॉक्टर है", Suite.NEUTRAL, "S1")
        sentences, mixed = tmp_path / "winomt.jsonl", tmp_path / "mixed.jsonl"
        write_sentences(sentences, corpus)
        write_sentences(mixed, [*corpus, neutral])
        config = tmp_path / "backends.json"
        config.write_text(json.dumps({"backends": [{"name": "e", "kind": "mock", "batch_size": 2,
                                                    "mock": {"spec": "echo_gold"}}]}),
                          encoding="utf-8")
        argv = ["translate", "--config", str(config), "--backend", "e"]
        clean, out = tmp_path / "clean.jsonl", tmp_path / "tr.jsonl"
        assert run([*argv, "--sentences", str(sentences), "--out", str(clean)]) == EXIT_OK
        journal = tmp_path / "tr.jsonl.partial"
        journal.write_text('{"backend": "e", "source_id": "zz", "sta', encoding="utf-8")
        # echo_gold cannot render the neutral record: the run aborts after
        # journaling the two batches before it
        assert run([*argv, "--sentences", str(mixed), "--out", str(out)]) == EXIT_ABORTED
        capsys.readouterr()
        assert run([*argv, "--sentences", str(sentences), "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().out == "translated 4/4 ok (0 failed, 4 reused) via e\n"
        assert out.read_bytes() == clean.read_bytes()
        assert not journal.exists()

    @pytest.mark.parametrize("where", ["output", "journal"])
    def test_an_ok_record_without_text_is_refused_or_skipped_by_a_resume(
        self, tmp_path, otsc_setup, backends_config, capsys, where
    ):
        """A bare {"source_id"} line is an OK record without a translation: in
        the output it aborts a resume, in the journal it is skipped and the
        record translated again."""
        _, sentences = otsc_setup
        argv = ["translate", "--sentences", str(sentences), "--config", str(backends_config),
                "--backend", "echo-gold"]
        clean = tmp_path / "clean.jsonl"
        assert run([*argv, "--out", str(clean)]) == EXIT_OK
        lines = clean.read_text(encoding="utf-8").splitlines(keepends=True)
        source_id = json.loads(lines[5])["source_id"]
        out = tmp_path / "tr.jsonl"
        written = out if where == "output" else tmp_path / "tr.jsonl.partial"
        written.write_text("".join(lines[:5]) + json.dumps({"source_id": source_id}) + "\n",
                           encoding="utf-8")
        capsys.readouterr()
        if where == "output":
            assert run([*argv, "--out", str(out)]) == EXIT_ABORTED
            assert capsys.readouterr().err == (
                f"error: {out}: line 6: record {source_id!r}: missing field 'target_text'\n")
        else:
            assert run([*argv, "--out", str(out)]) == EXIT_OK
            assert "5 reused" in capsys.readouterr().out
            assert out.read_bytes() == clean.read_bytes()

    @pytest.mark.parametrize("entry, complaint", [
        ({"kind": "mock", "mock": {"spec": "echo_gold"}},
         "{sentences}: record 'n-s1-1': echo_gold needs a gold gender"),
        ({"kind": "mock", "mock": {"spec": "stereotype_follower", "male_list": "male.txt",
                                   "female_list": "female.txt"}},
         "{sentences}: record 'n-s1-1': stereotype_follower needs an occupation"),
        ({"kind": "http", "endpoint": "http://127.0.0.1:9/", "auth_env": "MTGENDER_UNSET_KEY",
          "request_template": {"body": {}, "response_path": "t"}},
         "backend 'm': environment variable 'MTGENDER_UNSET_KEY' is not set"),
    ], ids=["echo_gold", "stereotype_follower", "auth_env"])
    def test_a_record_a_mock_cannot_translate_names_the_sentences_file(
        self, tmp_path, capsys, monkeypatch, entry, complaint
    ):
        """A record error names the sentences file; an error of the environment
        keeps naming the backend alone."""
        monkeypatch.delenv("MTGENDER_UNSET_KEY", raising=False)
        sentences = data_path("neutral_sample.jsonl")
        (tmp_path / "male.txt").write_text("मैकेनिक\n", encoding="utf-8")
        (tmp_path / "female.txt").write_text("नर्स\n", encoding="utf-8")
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"backends": [{"name": "m", **entry}]}), encoding="utf-8")
        assert run(["translate", "--sentences", str(sentences), "--config", str(path),
                    "--backend", "m", "--suite", "neutral",
                    "--out", str(tmp_path / "tr.jsonl")]) == EXIT_ABORTED
        assert capsys.readouterr().err == f"error: {complaint.format(sentences=sentences)}\n"

    def test_malformed_sentences_abort(self, tmp_path, backends_config, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"id": "x1", "text": \n', encoding="utf-8")
        assert run(["translate", "--sentences", str(bad), "--config", str(backends_config),
                    "--backend", "echo-gold", "--out",
                    str(tmp_path / "tr.jsonl")]) == EXIT_ABORTED
        assert "invalid JSON" in capsys.readouterr().err

    def test_fresh_ignores_existing(self, tmp_path, otsc_setup, backends_config, capsys):
        _, sentences = otsc_setup
        out = tmp_path / "tr.jsonl"
        for _ in range(2):
            code = run(["translate", "--sentences", str(sentences), "--config",
                        str(backends_config), "--backend", "echo-gold", "--out", str(out),
                        "--fresh"])
            assert code == EXIT_OK
        assert "0 reused" in capsys.readouterr().out

    def test_unknown_backend_aborts(self, tmp_path, otsc_setup, backends_config):
        _, sentences = otsc_setup
        out = tmp_path / "tr.jsonl"
        assert run(["translate", "--sentences", str(sentences), "--config",
                    str(backends_config), "--backend", "nope", "--out",
                    str(out)]) == EXIT_ABORTED

    @pytest.mark.parametrize("config, complaint", [
        ({"backends": [{"name": "m", "kind": "mock", "mock": {"spec": "echo_gold"},
                        "rate_limit": "5"}]}, "rate_limit must be a number, not '5'"),
        ({"backends": [{"name": "m", "kind": "mock", "mock": {"spec": "echo_gold"},
                        "timeout_s": None}]}, "timeout_s must be a number, not None"),
        ({"backends": [{"name": "m", "kind": "mock", "mock": {"spec": "echo_gold"},
                        "retry": []}]}, "retry must be an object, not []"),
        ({"backends": [{"name": "m", "kind": "mock", "mock": {"spec": "echo_gold"},
                        "batch_size": float("inf")}]}, "batch_size must be a number, not inf"),
        ({"backends": [{"name": "m", "kind": "file_replay", "replay_path": 5}]},
         "replay_path must be a string, not 5"),
        ({"backends": ["m"]}, "config needs a 'backends' list of one or more objects"),
        ([{"name": "m"}], "config needs a 'backends' list of one or more objects"),
        ({"backends": [{"name": "m", "kind": "http", "endpoint": "http://127.0.0.1:9/",
                        "request_template": {"body": {}, "response_path": "a", "headers": 5}}]},
         "headers must be an object, not 5"),
        ({"backends": [{"name": "m", "kind": "http", "endpoint": "http://127.0.0.1:9/",
                        "request_template": {"body": {}, "response_path": ["a"]}}]},
         "response_path must be a string, not ['a']"),
        ({"backends": [{"name": "m", "kind": "http", "endpoint": "http://127.0.0.1:9/",
                        "request_template": {"body": {}, "response_path": "a",
                                             "headers": {"X-Key": "a\r\nb"}}}]},
         "backend 'm': header 'X-Key' holds a CR, LF or NUL character"),
        ({"backends": [{"name": "m", "kind": "http", "endpoint": "http://127.0.0.1:9/",
                        "request_template": {"body": {}, "response_path": "a",
                                             "headers": {"X-Key\n": "a"}}}]},
         "backend 'm': header 'X-Key\\n' holds a CR, LF or NUL character"),
        ({"backends": [{"name": "m", "kind": "http", "endpoint": "http://127.0.0.1:9/",
                        "request_template": {"body": {}, "response_path": "a",
                                             "headers": {"X-Key": "a\u0000"}}}]},
         "backend 'm': header 'X-Key' holds a CR, LF or NUL character"),
        ({"backends": [{"name": "m", "kind": "mock", "mock": {"spec": "echo_gold"},
                        "batch_size": 2.5}]}, "batch_size must be a whole number, not 2.5"),
        ({"backends": [{"name": "m", "kind": "mock", "mock": {"spec": "echo_gold"},
                        "max_concurrency": 1.5}]}, "max_concurrency must be a whole number, not 1.5"),
        ({"backends": [{"name": "m", "kind": "mock", "mock": {"spec": "echo_gold"},
                        "retry": {"max_attempts": 2.5}}]},
         "max_attempts must be a whole number, not 2.5"),
        ({"backends": [{"name": "m", "kind": "mock", "mock": {"spec": "echo_gold"},
                        "retry": {"backoff_base_ms": 0.5}}]},
         "backoff_base_ms must be a whole number, not 0.5"),
        ({"backends": [{"name": "m", "kind": "mock",
                        "mock": {"spec": "coin_flip", "seed": 7.5}}]},
         "seed must be a whole number, not 7.5"),
        ({"backends": [{"name": "m", "kind": "http", "endpoint": "http://127.0.0.1:9/",
                        "request_template": {"body": {}, "response_path": "a"},
                        "rate_limit": 1e-300}]},
         "backend 'm': rate_limit must be at least one request per 600 s, not 1e-300"),
        *[({"backends": [{"name": "m", "kind": "http", "endpoint": "http://127.0.0.1:9/",
                          "request_template": {"body": {}, "response_path": "a"},
                          "timeout_s": timeout}]},
           f"backend 'm': timeout_s must be above 0 and at most 600, not {timeout}")
          for timeout in (1e300, -1, 0)],
        ({"backends": [{"name": "m", "kind": "mock", "mock": {"spec": "always_male"}},
                       {"name": "m", "kind": "mock", "mock": {"spec": "always_female"}}]},
         "more than one backend is named 'm'"),
        # the http settings that need no environment are checked with the config
        ({"backends": [{"name": "m", "kind": "http", "endpoint": "ftp://x/",
                        "request_template": {"body": {}, "response_path": "a"}}]},
         "backend 'm': endpoint must be an http:// or https:// URL, not 'ftp://x/'"),
        ({"backends": [{"name": "m", "kind": "http", "endpoint": "http://127.0.0.1:9/",
                        "request_template": {"body": {}, "response_path": "a",
                                             "headers": {"X-Key": "{credential}"}}}]},
         "backend 'm': header 'X-Key' references a credential but auth_env is not configured"),
        ({"backends": [{"name": "m", "kind": "http", "endpoint": "http://127.0.0.1:9/",
                        "request_template": {"body": {"t": float("nan")}, "response_path": "a"}}]},
         "backend 'm': Out of range float values are not JSON compliant"),
    ])
    def test_malformed_config_is_an_error_not_a_traceback(
        self, tmp_path, otsc_setup, capsys, config, complaint
    ):
        _, sentences = otsc_setup
        path = tmp_path / "bad-config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        assert run(["translate", "--sentences", str(sentences), "--config", str(path),
                    "--backend", "m", "--out", str(tmp_path / "tr.jsonl")]) == EXIT_ABORTED
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and complaint in err

    @pytest.mark.parametrize("backend, complaint", [
        ({"kind": "file_replay", "replay_path": "missing.jsonl"},
         "missing.jsonl: No such file or directory"),
        ({"kind": "http", "endpoint": "http://127.0.0.1:9/", "auth_env": "MTGENDER_TEST_KEY",
          "request_template": {"body": {}, "response_path": "a",
                               "headers": {"Authorization": "Bearer {credential}"}}},
         "backend 'b': header 'Authorization' holds a CR, LF or NUL character"),
    ])
    def test_abort_before_any_item_leaves_no_journal(
        self, tmp_path, otsc_setup, capsys, monkeypatch, backend, complaint
    ):
        _, sentences = otsc_setup
        monkeypatch.setenv("MTGENDER_TEST_KEY", "key\r\nX-Injected: 1")
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"backends": [{"name": "b", **backend}]}), encoding="utf-8")
        out = tmp_path / "tr.jsonl"
        assert run(["translate", "--sentences", str(sentences), "--config", str(path),
                    "--backend", "b", "--out", str(out)]) == EXIT_ABORTED
        assert complaint in capsys.readouterr().err
        assert not out.exists() and not Path(f"{out}.partial").exists()

    def test_winomt_sample_needs_suite_flag(self, tmp_path, backends_config):
        out = tmp_path / "tr.jsonl"
        sample = str(data_path("winomt_sample.jsonl"))
        assert run(["translate", "--sentences", sample, "--config", str(backends_config),
                    "--backend", "echo-gold", "--out", str(out)]) == EXIT_ABORTED
        assert run(["translate", "--sentences", sample, "--config", str(backends_config),
                    "--backend", "echo-gold", "--suite", "winomt",
                    "--out", str(out)]) == EXIT_OK


    def test_config_file_is_read_once(self, tmp_path, otsc_setup, backends_config, monkeypatch):
        import mtgender.backends

        reads = []
        load_json = mtgender.backends.load_json
        monkeypatch.setattr(mtgender.backends, "load_json",
                            lambda path, error: reads.append(path) or load_json(path, error))
        _, sentences = otsc_setup
        out = tmp_path / "tr.jsonl"
        assert run(["translate", "--sentences", str(sentences), "--config", str(backends_config),
                    "--backend", "coin", "--out", str(out)]) == EXIT_OK
        assert reads == [str(backends_config)]
        entry = {"name": "coin", "kind": "mock",
                 "mock": {"spec": "coin_flip", "seed": 7, "p_male": 0.5}}
        config_hash = hashlib.sha256(
            json.dumps(entry, ensure_ascii=False, sort_keys=True).encode("utf-8")).hexdigest()
        assert read_report(Path(f"{out}.manifest.json"))["backend"] == {
            "name": "coin", "config_hash": config_hash[:16]}


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    """(translate argv without --out, the records and the bytes) of an
    uninterrupted coin_flip run over 16 OTSC sentences."""
    tmp = tmp_path_factory.mktemp("finished")
    occupations, sentences, config = tmp / "occ.txt", tmp / "otsc.jsonl", tmp / "backends.json"
    occupations.write_text("डॉक्टर\nवकील\nनर्स\nमाली\n", encoding="utf-8")
    config.write_text(json.dumps({"backends": [{"name": "coin", "kind": "mock", "mock": {
        "spec": "coin_flip", "seed": 7}}]}), encoding="utf-8")
    assert run(["generate", "--occupations", str(occupations), "--out", str(sentences)]) == EXIT_OK
    argv = ["translate", "--sentences", str(sentences), "--config", str(config),
            "--backend", "coin"]
    assert run([*argv, "--out", str(tmp / "clean.jsonl")]) == EXIT_OK
    return argv, read_translations(tmp / "clean.jsonl"), (tmp / "clean.jsonl").read_bytes()


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_a_resume_from_any_split_is_byte_identical(finished_run, data):
    """Any split of a finished run into an output, which also holds FAILED
    records and unknown ids, and a journal, perhaps ending in a torn line,
    resumes to the bytes of the uninterrupted run, reusing each id that has
    an OK record in either file. The lines of both files may be written as
    another JSON writer would: keys in any order, non-ASCII escaped, padded
    with spaces, ended in CRLF."""
    argv, records, clean = finished_run
    reserialised = data.draw(st.booleans(), label="reserialised")
    shuffle = data.draw(st.randoms(use_true_random=False), label="key order").shuffle

    def write(path, written):
        if not reserialised:
            write_translations(path, written)
            return
        with open(path, "wb") as fh:
            for record in written:
                items = list(json.loads(line_encoder(TranslationRecord)(record)).items())
                shuffle(items)
                line = json.dumps(dict(items), ensure_ascii=True, separators=(" , ", " : "))
                fh.write(f"  {line} \r\n".encode("ascii"))

    extra = [TranslationRecord.failed(r.source_id, "coin", "HTTP 503") for r in records]
    extra += [TranslationRecord.ok(f"ghost-{i}", "He left.", "coin") for i in range(3)]
    pool = st.sampled_from(records + extra)
    output = data.draw(st.none() | st.lists(pool, max_size=24), label="output")
    journal = data.draw(st.none() | st.lists(pool, max_size=24), label="journal")
    torn = b""
    if journal is not None:
        line = line_encoder(TranslationRecord)(data.draw(pool)).encode("utf-8")
        torn = line[:data.draw(st.integers(0, len(line) - 2), label="torn")]
    reused = {r.source_id for r in (output or []) + (journal or []) if r in records}

    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "tr.jsonl"
        if output is not None:
            write(out, output)
        if journal is not None:
            write(f"{out}.partial", journal)
            with open(f"{out}.partial", "ab") as fh:
                fh.write(torn)
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert run([*argv, "--out", str(out)]) == EXIT_OK
        assert out.read_bytes() == clean
        assert not Path(f"{out}.partial").exists()
    assert stdout.getvalue() == f"translated 16/16 ok (0 failed, {len(reused)} reused) via coin\n"


def test_a_resume_copies_only_the_lines_it_journals(tmp_path, capsys):
    """A journal that already holds failed lines, an unknown id and a line a
    crash tore: the records this run appends after them are the ones copied
    to the output, which is the uninterrupted run's, byte for byte."""
    argv = _finished_translate(tmp_path)
    out, journal = tmp_path / "tr.jsonl", tmp_path / "tr.jsonl.partial"
    clean, records = out.read_bytes(), read_translations(out)
    encode = line_encoder(TranslationRecord)
    write_translations(out, records[12:])
    old = [TranslationRecord.failed(r.source_id, "coin", "HTTP 503") for r in records[:6]]
    old += [TranslationRecord.ok("ghost", "He left.", "coin"), *records[6:9]]
    journal.write_bytes("".join(map(encode, old)).encode("utf-8")
                        + encode(records[9]).encode("utf-8")[:20])
    capsys.readouterr()
    assert run(argv) == EXIT_OK
    assert capsys.readouterr().out == "translated 16/16 ok (0 failed, 7 reused) via coin\n"
    assert out.read_bytes() == clean
    assert not journal.exists()


def _finished_translate(root: Path) -> list[str]:
    """The argv of a finished coin_flip translate over 16 OTSC sentences, its
    files in root; the config also names a replay backend of root/replay.jsonl."""
    occupations, sentences, config = root / "occ.txt", root / "otsc.jsonl", root / "backends.json"
    occupations.write_text("डॉक्टर\nवकील\nनर्स\nमाली\n", encoding="utf-8")
    config.write_text(json.dumps({"backends": [
        {"name": "coin", "kind": "mock", "mock": {"spec": "coin_flip", "seed": 7}},
        {"name": "replay", "kind": "file_replay", "replay_path": "replay.jsonl"}]}),
        encoding="utf-8")
    assert run(["generate", "--occupations", str(occupations), "--out", str(sentences)]) == EXIT_OK
    argv = ["translate", "--sentences", str(sentences), "--config", str(config),
            "--backend", "coin", "--out", str(root / "tr.jsonl")]
    assert run(argv) == EXIT_OK
    return argv


def _sidecar_but_time(out: Path) -> dict:
    manifest = read_report(Path(f"{out}.manifest.json"))
    del manifest["created_utc"]
    return manifest


def test_a_resume_with_nothing_pending_rewrites_only_the_sidecar(tmp_path, monkeypatch, capsys):
    """The same translate again leaves the output as it is, inode and bytes,
    parses neither the sentences nor the output, and prints and writes what
    the full path prints and writes to the sidecar."""
    argv = _finished_translate(tmp_path)
    out = Path(argv[-1])
    before, clean = out.stat(), out.read_bytes()
    with monkeypatch.context() as patch:
        for name in ("read_sentences", "read_translations", "write_jsonl"):
            patch.setattr(mtgender.cli, name,
                          lambda *args, name=name, **kwargs: pytest.fail(f"{name} called"))
        capsys.readouterr()
        assert run(argv) == EXIT_OK
    assert capsys.readouterr().out == "translated 16/16 ok (0 failed, 16 reused) via coin\n"
    after = out.stat()
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
    assert out.read_bytes() == clean
    kept = _sidecar_but_time(out)
    assert kept["counts"] == {"sources": 16, "translated_ok": 16, "translated_failed": 0,
                              "reused": 16}

    monkeypatch.setattr(mtgender.cli, "_previous_run", lambda *args: None)  # the full path
    assert run(argv) == EXIT_OK
    assert capsys.readouterr().out == "translated 16/16 ok (0 failed, 16 reused) via coin\n"
    assert out.read_bytes() == clean and _sidecar_but_time(out) == kept


def _edit_output(root: Path, argv: list[str]) -> list[str]:
    records = read_translations(root / "tr.jsonl")
    write_translations(root / "tr.jsonl", [TranslationRecord.ok(records[0].source_id,
                                                                "She left.", "coin"),
                                           *records[1:]])
    return argv


def _edit_config(root: Path, argv: list[str]) -> list[str]:
    config = read_report(root / "backends.json")
    config["backends"][0]["batch_size"] = 4  # the same translations from another entry
    (root / "backends.json").write_text(json.dumps(config), encoding="utf-8")
    return argv


def _drop_a_sentence(root: Path, argv: list[str]) -> list[str]:
    lines = (root / "otsc.jsonl").read_bytes().splitlines(keepends=True)
    (root / "otsc.jsonl").write_bytes(b"".join(lines[:-1]))
    return argv


def _fail_three_items(root: Path, argv: list[str]) -> list[str]:
    write_translations(root / "replay.jsonl", read_translations(root / "tr.jsonl")[:-3])
    argv = [*argv[:6], "replay", *argv[7:]]
    assert run([*argv, "--fresh"]) == EXIT_PARTIAL
    return argv


def _add_a_journal(root: Path, argv: list[str]) -> list[str]:
    lines = (root / "tr.jsonl").read_bytes().splitlines(keepends=True)
    (root / "tr.jsonl.partial").write_bytes(b"".join(lines[:5]))
    return argv


def _drop_the_sidecar(root: Path, argv: list[str]) -> list[str]:
    (root / "tr.jsonl.manifest.json").unlink()
    return argv


def _garble_the_sidecar(root: Path, argv: list[str]) -> list[str]:
    (root / "tr.jsonl.manifest.json").write_text("{", encoding="utf-8")
    return argv


_SOMETHING_CHANGED = {
    "edited output": _edit_output,
    "changed config entry": _edit_config,
    "changed sentences": _drop_a_sentence,
    "other suite": lambda root, argv: [*argv, "--suite", "otsc"],
    "failed items": _fail_three_items,
    "journal": _add_a_journal,
    "missing sidecar": _drop_the_sidecar,
    "malformed sidecar": _garble_the_sidecar,
    "fresh": lambda root, argv: [*argv, "--fresh"],
}


@pytest.mark.parametrize("change", sorted(_SOMETHING_CHANGED))
def test_a_resume_with_something_changed_takes_the_full_path(tmp_path, monkeypatch, capsys,
                                                            change):
    """A resume after any change that may leave an item pending, or that the
    sidecar cannot vouch for, writes the output again and ends as a run
    without the no-op path does: exit code, stdout, stderr, output bytes and
    sidecar."""
    argv = _SOMETHING_CHANGED[change](tmp_path, _finished_translate(tmp_path))
    files = {path: path.read_bytes() for path in tmp_path.iterdir()}
    out = Path(argv[argv.index("--out") + 1])
    write_jsonl = mtgender.cli.write_jsonl
    ends = []
    for full_path_only in (False, True):
        for path in tmp_path.iterdir():
            path.unlink()
        for path, data in files.items():
            path.write_bytes(data)
        written = []
        with monkeypatch.context() as patch:
            patch.setattr(mtgender.cli, "write_jsonl", lambda path, *args:
                          written.append(path) or write_jsonl(path, *args))
            if full_path_only:
                patch.setattr(mtgender.cli, "_previous_run", lambda *args: None)
            capsys.readouterr()
            code = run(argv)
        std = capsys.readouterr()
        ends.append((code, std.out, std.err, out.read_bytes(), _sidecar_but_time(out), written))
    assert ends[0] == ends[1]
    assert ends[0][-1] == [out]


class TestEvaluate:
    def _translate(self, sentences, backends_config, tmp_path, backend="echo-gold",
                   suite=None, name="tr.jsonl"):
        out = tmp_path / name
        argv = ["translate", "--sentences", str(sentences), "--config", str(backends_config),
                "--backend", backend, "--out", str(out)]
        if suite:
            argv += ["--suite", suite]
        assert run(argv) in (EXIT_OK, EXIT_PARTIAL)
        return out

    def test_otsc_report(self, tmp_path, otsc_setup, backends_config, capsys):
        _, sentences = otsc_setup
        translations = self._translate(sentences, backends_config, tmp_path)
        report_path = tmp_path / "report.json"
        assert run(["evaluate", "--sentences", str(sentences), "--translations",
                    str(translations), "--suite", "otsc", "--out", str(report_path)]) == EXIT_OK
        payload = read_report(report_path)
        assert payload["suite"] == "otsc"
        assert payload["backend"] == "echo-gold"
        for quadrant in ("FF", "FM", "MF", "MM"):
            assert payload["metrics"]["quadrants"][quadrant]["true_rate"] == 100.0
        table = capsys.readouterr().out
        assert "Female Speaker, Female Friend" in table

    def test_winomt_report_with_options(self, tmp_path, backends_config, capsys):
        sentences = tmp_path / "winomt.jsonl"
        write_sentences(sentences, build_winomt_corpus(80))
        translations = self._translate(sentences, backends_config, tmp_path,
                                        backend="neutralize", suite="winomt")
        report_path = tmp_path / "report.json"
        assert run(["evaluate", "--sentences", str(sentences), "--translations",
                    str(translations), "--suite", "winomt", "--out",
                    str(report_path)]) == EXIT_OK
        default = read_report(report_path)["metrics"]
        assert default["acc"] == 0.0 and default["n"] == 100.0

        assert run(["evaluate", "--sentences", str(sentences), "--translations",
                    str(translations), "--suite", "winomt", "--out", str(report_path),
                    "--neutral-as-positive"]) == EXIT_OK
        flipped = read_report(report_path)["metrics"]
        assert flipped["acc"] == 100.0 and flipped["n"] == 100.0

    def test_neutral_suite_tgbi(self, tmp_path, backends_config, capsys):
        sample = str(data_path("neutral_sample.jsonl"))
        translations = self._translate(sample, backends_config, tmp_path,
                                        backend="neutralize", suite="neutral")
        report_path = tmp_path / "report.json"
        assert run(["evaluate", "--sentences", sample, "--translations", str(translations),
                    "--suite", "neutral", "--out", str(report_path)]) == EXIT_OK
        payload = read_report(report_path)
        assert payload["metrics"]["tgbi"] == 1.0
        assert "TGBI" in capsys.readouterr().out

    def test_id_mismatch_aborts(self, tmp_path, otsc_setup, backends_config, capsys):
        _, sentences = otsc_setup
        translations = self._translate(sentences, backends_config, tmp_path)
        records = read_translations(translations)
        write_translations(translations, records[:-1])  # drop one id
        # sidecar digest now mismatches too, so skip verification to reach the id check
        capsys.readouterr()
        assert run(["evaluate", "--sentences", str(sentences), "--translations",
                    str(translations), "--suite", "otsc", "--out",
                    str(tmp_path / "r.json"), "--no-verify"]) == EXIT_ABORTED
        assert capsys.readouterr().err == \
            f"error: {translations}: ids do not match {sentences} (1 missing, 0 unknown)\n"

    def test_digest_mismatch_refused_without_override(self, tmp_path, otsc_setup,
                                                      backends_config, capsys):
        _, sentences = otsc_setup
        translations = self._translate(sentences, backends_config, tmp_path)
        with open(translations, "a", encoding="utf-8") as fh:
            fh.write("\n")
        report_path = tmp_path / "report.json"
        assert run(["evaluate", "--sentences", str(sentences), "--translations",
                    str(translations), "--suite", "otsc", "--out",
                    str(report_path)]) == EXIT_ABORTED
        assert "does not match manifest" in capsys.readouterr().err
        assert run(["evaluate", "--sentences", str(sentences), "--translations",
                    str(translations), "--suite", "otsc", "--out", str(report_path),
                    "--no-verify"]) == EXIT_OK

    @pytest.mark.parametrize("sidecar", ["[]", '{"output": "x"}', '{"output": {"sha256": 5}}'])
    def test_sidecar_of_the_wrong_shape_is_malformed(self, tmp_path, otsc_setup,
                                                      backends_config, capsys, sidecar):
        _, sentences = otsc_setup
        translations = self._translate(sentences, backends_config, tmp_path)
        Path(f"{sentences}.manifest.json").write_text(sidecar, encoding="utf-8")
        capsys.readouterr()
        assert run(["evaluate", "--sentences", str(sentences), "--translations",
                    str(translations), "--suite", "otsc", "--out",
                    str(tmp_path / "r.json")]) == EXIT_ABORTED
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "malformed manifest" in err

    def test_a_sidecar_that_cannot_be_read_is_malformed(self, tmp_path, otsc_setup,
                                                         backends_config, capsys, caplog):
        _, sentences = otsc_setup
        translations = self._translate(sentences, backends_config, tmp_path)
        sidecar = Path(f"{translations}.manifest.json")
        sidecar.unlink()
        sidecar.mkdir()
        argv = ["evaluate", "--sentences", str(sentences), "--translations", str(translations),
                "--suite", "otsc", "--out", str(tmp_path / "r.json")]
        capsys.readouterr()
        assert run(argv) == EXIT_ABORTED
        assert capsys.readouterr().err == (f"error: {sidecar}: malformed manifest; "
                                           "pass --no-verify to evaluate anyway\n")
        assert run([*argv, "--no-verify"]) == EXIT_OK
        assert f"{sidecar}: malformed manifest (ignored by --no-verify)" in caplog.text

    def test_suite_mismatch_aborts(self, tmp_path, otsc_setup, backends_config):
        _, sentences = otsc_setup
        translations = self._translate(sentences, backends_config, tmp_path)
        assert run(["evaluate", "--sentences", str(sentences), "--translations",
                    str(translations), "--suite", "winomt", "--out",
                    str(tmp_path / "r.json")]) == EXIT_ABORTED

    def test_stereotype_list_override(self, tmp_path, backends_config):
        corpus = build_winomt_corpus(40)
        sentences = tmp_path / "winomt.jsonl"
        write_sentences(sentences, corpus)
        translations = self._translate(sentences, backends_config, tmp_path,
                                        backend="always-male", suite="winomt")
        male_list = tmp_path / "male.txt"
        female_list = tmp_path / "female.txt"
        # swap the stereotype direction relative to the corpus tags
        male_list.write_text("नर्स\n", encoding="utf-8")
        female_list.write_text("मैकेनिक\n", encoding="utf-8")
        report_path = tmp_path / "report.json"
        assert run(["evaluate", "--sentences", str(sentences), "--translations",
                    str(translations), "--suite", "winomt", "--out", str(report_path),
                    "--male-stereotypes", str(male_list),
                    "--female-stereotypes", str(female_list)]) == EXIT_OK
        # balanced corpus: swapping pro/anti leaves delta_s at zero but the
        # option must be recorded
        payload = read_report(report_path)
        assert payload["options"]["stereotype_lists"] == [str(male_list), str(female_list)]

    def test_stereotype_lists_must_come_together(self, tmp_path, otsc_setup, backends_config):
        _, sentences = otsc_setup
        translations = self._translate(sentences, backends_config, tmp_path)
        assert run(["evaluate", "--sentences", str(sentences), "--translations",
                    str(translations), "--suite", "otsc", "--out", str(tmp_path / "r.json"),
                    "--male-stereotypes", "x.txt"]) == EXIT_ABORTED

    @pytest.mark.parametrize("edit, field", [
        ("translations", "target_text"),
        ("translations", "backend"),
        ("sentences", "occupation"),
    ])
    def test_mistyped_field_is_an_error_not_a_traceback(
        self, tmp_path, backends_config, capsys, edit, field
    ):
        sentences = tmp_path / "winomt.jsonl"
        write_sentences(sentences, build_winomt_corpus(8))
        translations = self._translate(sentences, backends_config, tmp_path,
                                        backend="echo-gold", suite="winomt")
        target = sentences if edit == "sentences" else translations
        lines = target.read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[2])
        record[field] = ["x"] if field == "occupation" else 5
        lines[2] = json.dumps(record, ensure_ascii=False)
        target.write_text("\n".join(lines) + "\n", encoding="utf-8")
        male_list = tmp_path / "male.txt"
        female_list = tmp_path / "female.txt"
        male_list.write_text("मैकेनिक\n", encoding="utf-8")
        female_list.write_text("नर्स\n", encoding="utf-8")
        capsys.readouterr()
        assert run(["evaluate", "--sentences", str(sentences), "--translations",
                    str(translations), "--suite", "winomt", "--out", str(tmp_path / "r.json"),
                    "--no-verify", "--male-stereotypes", str(male_list),
                    "--female-stereotypes", str(female_list)]) == EXIT_ABORTED
        err = capsys.readouterr().err
        assert err.startswith(f"error: {target}: line 3: record ")
        assert f"field {field!r} must be a str" in err

    def test_an_ok_record_without_text_aborts(self, tmp_path, otsc_setup, backends_config,
                                              capsys):
        """An OK record needs a target_text; a failed one may leave it out."""
        _, sentences = otsc_setup
        translations = self._translate(sentences, backends_config, tmp_path)
        lines = translations.read_text(encoding="utf-8").splitlines(keepends=True)
        source_id = json.loads(lines[3])["source_id"]
        argv = ["evaluate", "--sentences", str(sentences), "--translations", str(translations),
                "--suite", "otsc", "--out", str(tmp_path / "r.json"), "--no-verify"]

        def evaluate_with(record):
            lines[3] = json.dumps(record) + "\n"
            translations.write_text("".join(lines), encoding="utf-8")
            capsys.readouterr()
            return run(argv)

        assert evaluate_with({"source_id": source_id, "status": "failed"}) == EXIT_OK
        assert "note: 1 failed translations excluded from metrics" in capsys.readouterr().out
        for record in ({"source_id": source_id}, {"source_id": source_id, "status": "ok"}):
            assert evaluate_with(record) == EXIT_ABORTED
            assert capsys.readouterr().err == (f"error: {translations}: line 4: record "
                                               f"{source_id!r}: missing field 'target_text'\n")

    def test_duplicate_translation_id_aborts(self, tmp_path, otsc_setup, backends_config, capsys):
        _, sentences = otsc_setup
        translations = self._translate(sentences, backends_config, tmp_path)
        lines = translations.read_text(encoding="utf-8").splitlines(keepends=True)
        translations.write_text("".join(lines + lines[3:6]), encoding="utf-8")
        report = tmp_path / "r.json"
        capsys.readouterr()
        assert run(["evaluate", "--sentences", str(sentences), "--translations",
                    str(translations), "--suite", "otsc", "--out", str(report),
                    "--no-verify"]) == EXIT_ABORTED
        source_id = json.loads(lines[3])["source_id"]
        assert capsys.readouterr().err == \
            f"error: {translations}: duplicate source_id {source_id!r}\n"
        assert not report.exists()

    @pytest.mark.parametrize("case", ["duplicates", "duplicate then bad JSON", "unknown id",
                                      "digest mismatch then bad JSON"])
    def test_translations_errors_keep_their_order(self, tmp_path, otsc_setup, backends_config,
                                                  capsys, case):
        """A line that does not parse wins over a duplicate, a duplicate over a
        mismatch, and the first id repeated, in order of first appearance, is
        named; an unknown id is a mismatch, never a classification error."""
        _, sentences = otsc_setup
        translations = self._translate(sentences, backends_config, tmp_path)
        lines = translations.read_text(encoding="utf-8").splitlines(keepends=True)
        ids = [json.loads(line)["source_id"] for line in lines]
        argv = ["evaluate", "--sentences", str(sentences), "--translations", str(translations),
                "--suite", "otsc", "--out", str(tmp_path / "r.json"), "--no-verify"]
        bad_json = f"error: {translations}: line 5: invalid JSON (Expecting value)\n"
        if case == "duplicates":
            lines = [lines[0], lines[1], lines[1], lines[0]]
            expected = f"error: {translations}: duplicate source_id {ids[0]!r}\n"
        elif case == "duplicate then bad JSON":
            lines = [lines[0], lines[0], lines[1], lines[2], "oops\n", *lines[3:]]
            expected = bad_json
        elif case == "unknown id":
            unknown = {"source_id": "zz", "target_text": "he", "backend": "x"}
            lines.append(json.dumps(unknown) + "\n")
            expected = (f"error: {translations}: ids do not match {sentences} "
                        "(0 missing, 1 unknown)\n")
        else:
            with open(sentences, "a", encoding="utf-8") as fh:
                fh.write("\n")
            lines[4] = "oops\n"
            argv.remove("--no-verify")
            expected = bad_json
        translations.write_text("".join(lines), encoding="utf-8")
        capsys.readouterr()
        assert run(argv) == EXIT_ABORTED
        assert capsys.readouterr().err == expected

    @pytest.mark.parametrize("suite, options, expected", [
        ("otsc", ["--pronouns", "{tmp}/lexicon.json"],
         "{tmp}/lexicon.json: invalid JSON (Expecting value)"),
        ("otsc", ["--male-stereotypes", "{tmp}/male.txt"],
         "--male-stereotypes and --female-stereotypes must be given together"),
        ("otsc", ["--male-stereotypes", "{tmp}/male.txt", "--female-stereotypes",
                  "{tmp}/female.txt"], "stereotype lists only apply to the winomt suite"),
        ("winomt", ["--male-stereotypes", "{tmp}/male.txt", "--female-stereotypes",
                    "{tmp}/male.txt"],
         "{tmp}/male.txt and {tmp}/male.txt: stereotype lists overlap: नर्स"),
        ("winomt", ["--male-stereotypes", "{tmp}/male.txt", "--female-stereotypes",
                    "{tmp}/missing.txt"], "{tmp}/missing.txt: No such file or directory"),
    ], ids=["pronouns", "lone list", "lists off winomt", "overlap", "missing list"])
    def test_option_files_are_checked_before_the_translations(
        self, tmp_path, otsc_setup, backends_config, capsys, suite, options, expected
    ):
        """The lexicon and the stereotype lists are loaded before the
        translations are read, so their errors win over a translations line
        that does not parse."""
        if suite == "otsc":
            sentences = otsc_setup[1]
        else:
            sentences = tmp_path / "winomt.jsonl"
            write_sentences(sentences, build_winomt_corpus(8))
        translations = self._translate(sentences, backends_config, tmp_path, suite=suite)
        translations.write_text("oops\n", encoding="utf-8")
        (tmp_path / "lexicon.json").write_text("oops", encoding="utf-8")
        (tmp_path / "male.txt").write_text("नर्स\n", encoding="utf-8")
        (tmp_path / "female.txt").write_text("मैकेनिक\n", encoding="utf-8")
        capsys.readouterr()
        assert run(["evaluate", "--sentences", str(sentences), "--translations",
                    str(translations), "--suite", suite, "--out", str(tmp_path / "r.json"),
                    "--no-verify", *(o.format(tmp=tmp_path) for o in options)]) == EXIT_ABORTED
        assert capsys.readouterr().err == f"error: {expected.format(tmp=tmp_path)}\n"

    @pytest.mark.parametrize("suite, options", [
        ("winomt", ["--male-stereotypes", "{tmp}/male.txt"]),
        ("otsc", ["--male-stereotypes", "{tmp}/male.txt", "--female-stereotypes",
                  "{tmp}/female.txt"]),
        ("winomt", ["--male-stereotypes", "{tmp}/male.txt", "--female-stereotypes",
                    "{tmp}/missing.txt"]),
        ("winomt", ["--male-stereotypes", "{tmp}/male.txt", "--female-stereotypes",
                    "{tmp}/male.txt"]),
        ("otsc", ["--pronouns", "{tmp}/missing.json"]),
    ], ids=["lone list", "lists off winomt", "missing list", "overlap", "missing pronouns"])
    def test_a_sentences_error_wins_over_an_option_error(
        self, tmp_path, otsc_setup, capsys, suite, options
    ):
        """The sentences are read to their last line before the stereotype
        lists and the lexicon are loaded: an error on that line is the one
        reported, whatever is wrong with the options."""
        if suite == "otsc":
            sentences = otsc_setup[1]
        else:
            sentences = tmp_path / "winomt.jsonl"
            write_sentences(sentences, build_winomt_corpus(8))
        lines = len(sentences.read_bytes().splitlines()) + 1
        with open(sentences, "a", encoding="utf-8") as fh:
            fh.write("oops\n")
        translations = tmp_path / "tr.jsonl"
        translations.write_text("oops\n", encoding="utf-8")
        (tmp_path / "male.txt").write_text("नर्स\n", encoding="utf-8")
        (tmp_path / "female.txt").write_text("मैकेनिक\n", encoding="utf-8")
        capsys.readouterr()
        assert run(["evaluate", "--sentences", str(sentences), "--translations",
                    str(translations), "--suite", suite, "--out", str(tmp_path / "r.json"),
                    *(o.format(tmp=tmp_path) for o in options)]) == EXIT_ABORTED
        assert capsys.readouterr().err == \
            f"error: {sentences}: line {lines}: invalid JSON (Expecting value)\n"

    def test_unwritable_table_leaves_no_report(self, tmp_path, otsc_setup, backends_config,
                                               capsys):
        _, sentences = otsc_setup
        translations = self._translate(sentences, backends_config, tmp_path)
        table = tmp_path / "table"
        table.mkdir()
        report = tmp_path / "r.json"
        capsys.readouterr()
        assert run(["evaluate", "--sentences", str(sentences), "--translations",
                    str(translations), "--suite", "otsc", "--out", str(report),
                    "--table", str(table)]) == EXIT_ABORTED
        assert capsys.readouterr().err == f"error: {table}: Is a directory\n"
        assert not report.exists() and not Path(f"{report}.manifest.json").exists()

    def test_overlapping_stereotype_lists_name_both_files(self, tmp_path, backends_config,
                                                          capsys):
        sentences = tmp_path / "winomt.jsonl"
        write_sentences(sentences, build_winomt_corpus(8))
        translations = self._translate(sentences, backends_config, tmp_path, suite="winomt")
        same = tmp_path / "list.txt"
        same.write_text("सचिव\n", encoding="utf-8")
        capsys.readouterr()
        assert run(["evaluate", "--sentences", str(sentences), "--translations",
                    str(translations), "--suite", "winomt", "--out", str(tmp_path / "r.json"),
                    "--male-stereotypes", str(same),
                    "--female-stereotypes", str(same)]) == EXIT_ABORTED
        assert capsys.readouterr().err == \
            f"error: {same} and {same}: stereotype lists overlap: सचिव\n"

    def test_table_file_written(self, tmp_path, otsc_setup, backends_config):
        _, sentences = otsc_setup
        translations = self._translate(sentences, backends_config, tmp_path)
        table_path = tmp_path / "table.txt"
        assert run(["evaluate", "--sentences", str(sentences), "--translations",
                    str(translations), "--suite", "otsc", "--out", str(tmp_path / "r.json"),
                    "--table", str(table_path)]) == EXIT_OK
        assert "Male Speaker, Male Friend" in table_path.read_text(encoding="utf-8")


class TestReport:
    def _make_reports(self, tmp_path, backends_config, backends):
        sentences = tmp_path / "winomt.jsonl"
        write_sentences(sentences, build_winomt_corpus(40))
        paths = []
        for backend in backends:
            translations = tmp_path / f"tr-{backend}.jsonl"
            assert run(["translate", "--sentences", str(sentences), "--config",
                        str(backends_config), "--backend", backend, "--suite", "winomt",
                        "--out", str(translations)]) == EXIT_OK
            report = tmp_path / f"report-{backend}.json"
            assert run(["evaluate", "--sentences", str(sentences), "--translations",
                        str(translations), "--suite", "winomt", "--out",
                        str(report)]) == EXIT_OK
            paths.append(report)
        return paths

    def test_four_system_comparison(self, tmp_path, backends_config, capsys):
        paths = self._make_reports(tmp_path, backends_config,
                                   ["echo-gold", "always-male", "always-female", "neutralize"])
        capsys.readouterr()  # drop setup output
        assert run(["report", *[str(p) for p in paths]]) == EXIT_OK
        table = capsys.readouterr().out
        lines = [l for l in table.splitlines() if l.strip()]
        assert len(lines) == 5  # header + four systems
        assert "always-male" in table and "ΔG" in lines[0]

    def test_single_report(self, tmp_path, backends_config, capsys):
        paths = self._make_reports(tmp_path, backends_config, ["echo-gold"])
        assert run(["report", str(paths[0])]) == EXIT_OK
        assert "echo-gold" in capsys.readouterr().out

    def test_mixed_suites_rejected(self, tmp_path, otsc_setup, backends_config, capsys):
        winomt_report = self._make_reports(tmp_path, backends_config, ["echo-gold"])[0]
        _, sentences = otsc_setup
        translations = tmp_path / "tr-otsc.jsonl"
        assert run(["translate", "--sentences", str(sentences), "--config",
                    str(backends_config), "--backend", "echo-gold", "--out",
                    str(translations)]) == EXIT_OK
        otsc_report = tmp_path / "report-otsc.json"
        assert run(["evaluate", "--sentences", str(sentences), "--translations",
                    str(translations), "--suite", "otsc", "--out",
                    str(otsc_report)]) == EXIT_OK
        assert run(["report", str(winomt_report), str(otsc_report)]) == EXIT_ABORTED
        assert "mix suites" in capsys.readouterr().err

    @pytest.mark.parametrize("metrics, complaint", [
        ({"acc": 1}, "missing metrics.delta_g"),
        ([], "metrics must be an object, not []"),
    ])
    def test_malformed_report_is_an_error_not_a_traceback(
        self, tmp_path, backends_config, capsys, metrics, complaint
    ):
        path = self._make_reports(tmp_path, backends_config, ["echo-gold"])[0]
        payload = read_report(path)
        payload["metrics"] = metrics
        path.write_text(json.dumps(payload), encoding="utf-8")
        capsys.readouterr()
        assert run(["report", str(path)]) == EXIT_ABORTED
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err and complaint in err

    @pytest.mark.parametrize("edit, held", [
        ("drop MM", "['FF', 'FM', 'MF']"),
        ("add XX", "['FF', 'FM', 'MF', 'MM', 'XX']"),
    ])
    def test_otsc_report_needs_exactly_the_four_quadrants(
        self, tmp_path, otsc_setup, backends_config, capsys, edit, held
    ):
        _, sentences = otsc_setup
        translations = tmp_path / "tr.jsonl"
        path = tmp_path / "report.json"
        assert run(["translate", "--sentences", str(sentences), "--config", str(backends_config),
                    "--backend", "echo-gold", "--out", str(translations)]) == EXIT_OK
        assert run(["evaluate", "--sentences", str(sentences), "--translations",
                    str(translations), "--suite", "otsc", "--out", str(path)]) == EXIT_OK
        payload = read_report(path)
        quadrants = payload["metrics"]["quadrants"]
        if edit == "drop MM":
            del quadrants["MM"]
        else:
            quadrants["XX"] = quadrants["FF"]
        path.write_text(json.dumps(payload), encoding="utf-8")
        capsys.readouterr()
        assert run(["report", str(path)]) == EXIT_ABORTED
        assert capsys.readouterr().err == (
            f"error: {path}: metrics: quadrants must be ['FF', 'FM', 'MF', 'MM'], not {held}\n")

    @pytest.mark.parametrize("suite", ["otsc", "winomt", "neutral"])
    def test_prints_exactly_the_table_evaluate_printed(
        self, tmp_path, otsc_setup, backends_config, capsys, suite
    ):
        sentences = {"otsc": otsc_setup[1], "winomt": data_path("winomt_sample.jsonl"),
                     "neutral": data_path("neutral_sample.jsonl")}[suite]
        translations = tmp_path / "tr.jsonl"
        assert run(["translate", "--sentences", str(sentences), "--config",
                    str(backends_config), "--backend", "coin", "--suite", suite,
                    "--out", str(translations)]) == EXIT_OK
        report = tmp_path / "report.json"
        capsys.readouterr()
        assert run(["evaluate", "--sentences", str(sentences), "--translations",
                    str(translations), "--suite", suite, "--out", str(report)]) == EXIT_OK
        evaluated = capsys.readouterr().out
        assert run(["report", str(report)]) == EXIT_OK
        assert capsys.readouterr().out == evaluated

    def test_out_file(self, tmp_path, backends_config):
        paths = self._make_reports(tmp_path, backends_config, ["echo-gold"])
        out = tmp_path / "table.txt"
        assert run(["report", str(paths[0]), "--out", str(out)]) == EXIT_OK
        assert "Acc" in out.read_text(encoding="utf-8")


def test_cli_import_leaves_requests_unloaded():
    """Only the HTTP backend needs requests; the CLI starts without it."""
    src = str(Path(mtgender.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = "import sys, mtgender.cli; print(sorted(m for m in sys.modules if m.startswith('requests')))"
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                            text=True, check=True)
    assert result.stdout.strip() == "[]"


@pytest.mark.parametrize("kind", ["sentences", "translations", "config", "template",
                                  "occupations", "pronouns", "report"])
def test_a_file_that_is_not_utf8_is_named(tmp_path, otsc_setup, backends_config, capsys, kind):
    """Every input file that is not UTF-8 ends in error: <file>: ..., exit 1."""
    occupations, sentences = otsc_setup
    translations = tmp_path / "tr.jsonl"
    report = tmp_path / "report.json"
    args = ["--sentences", str(sentences), "--translations", str(translations),
            "--suite", "otsc", "--no-verify"]
    assert run(["translate", "--sentences", str(sentences), "--config", str(backends_config),
                "--backend", "echo-gold", "--out", str(translations)]) == EXIT_OK
    assert run(["evaluate", *args, "--out", str(report)]) == EXIT_OK
    commands = {
        "sentences": (sentences, ["evaluate", *args, "--out", str(report)]),
        "translations": (translations, ["evaluate", *args, "--out", str(report)]),
        "config": (backends_config, ["translate", "--sentences", str(sentences), "--config",
                                     str(backends_config), "--backend", "echo-gold",
                                     "--out", str(translations)]),
        "template": (tmp_path / "template.json",
                     ["generate", "--occupations", str(occupations), "--template",
                      str(tmp_path / "template.json"), "--out", str(tmp_path / "out.jsonl")]),
        "occupations": (occupations, ["generate", "--occupations", str(occupations),
                                      "--out", str(tmp_path / "out.jsonl")]),
        "pronouns": (tmp_path / "pronouns.json",
                     ["evaluate", *args, "--out", str(report), "--pronouns",
                      str(tmp_path / "pronouns.json")]),
        "report": (report, ["report", str(report)]),
    }
    path, argv = commands[kind]
    text = path.read_bytes() if path.exists() else b"{}"
    cut = text.find(b"\n") + 1  # the start of line 2, if there is one
    path.write_bytes(text[:cut] + b"\xe0" + text[cut:])  # a lead byte with no continuation
    capsys.readouterr()
    assert run(argv) == EXIT_ABORTED
    err = capsys.readouterr().err
    line = "line 2: " if kind in ("sentences", "translations") else ""
    assert err.startswith(f"error: {path}: {line}not valid UTF-8 ("), err


_INPUTS = [("generate", "--occupations"), ("generate", "--template"),
           ("translate", "--sentences"), ("translate", "--config"),
           ("evaluate", "--sentences"), ("evaluate", "--translations"),
           ("evaluate", "--male-stereotypes"), ("evaluate", "--female-stereotypes"),
           ("evaluate", "--pronouns"), ("report", "reports"),
           ("translate", "replay_path")]  # a path a backend config names
_OUTPUTS = [("generate", "--out"), ("translate", "--out"), ("evaluate", "--out"),
            ("evaluate", "--table"), ("report", "--out")]


@pytest.mark.parametrize("command, option, problem",
                         [(*arg, problem) for arg in _INPUTS for problem in ("missing", "directory")]
                         + [(*arg, "directory") for arg in _OUTPUTS])
def test_a_path_that_is_missing_or_a_directory_is_named(
    tmp_path, backends_config, capsys, command, option, problem
):
    """Every path argument that cannot be read or written, and a replay file
    a config names, ends in error: <path>: <strerror>, exit 1, whatever the
    system call that failed."""
    sentences = data_path("winomt_sample.jsonl")
    translations = tmp_path / "tr.jsonl"
    report = tmp_path / "report.json"
    for name, text in (("occ.txt", "डॉक्टर\n"), ("male.txt", "मैकेनिक\n"), ("female.txt", "नर्स\n"),
                       ("pronouns.json", '{"male_tokens": ["he"], "female_tokens": ["she"]}')):
        (tmp_path / name).write_text(text, encoding="utf-8")
    assert run(["translate", "--sentences", str(sentences), "--config", str(backends_config),
                "--backend", "echo-gold", "--suite", "winomt", "--out", str(translations)]) == EXIT_OK
    assert run(["evaluate", "--sentences", str(sentences), "--translations", str(translations),
                "--suite", "winomt", "--out", str(report)]) == EXIT_OK
    arguments = {
        "generate": {"--occupations": tmp_path / "occ.txt",
                     "--template": data_path("otsc_template.json"),
                     "--out": tmp_path / "otsc.jsonl"},
        "translate": {"--sentences": sentences, "--config": backends_config,
                      "--backend": "echo-gold", "--suite": "winomt",
                      "--out": tmp_path / "tr2.jsonl"},
        "evaluate": {"--sentences": sentences, "--translations": translations,
                     "--suite": "winomt", "--male-stereotypes": tmp_path / "male.txt",
                     "--female-stereotypes": tmp_path / "female.txt",
                     "--pronouns": tmp_path / "pronouns.json",
                     "--out": tmp_path / "r2.json", "--table": tmp_path / "table.txt"},
        "report": {"reports": report, "--out": tmp_path / "table.txt"},
    }[command]
    bad = tmp_path / "nowhere"
    if problem == "directory":
        bad.mkdir()
    if option == "replay_path":
        config = tmp_path / "replay.json"
        config.write_text(json.dumps({"backends": [
            {"name": "r", "kind": "file_replay", "replay_path": str(bad)}]}), encoding="utf-8")
        arguments.update({"--config": config, "--backend": "r"})
    else:
        arguments[option] = bad
    argv = [command]
    for name, value in arguments.items():
        argv += [str(value)] if name == "reports" else [name, str(value)]
    capsys.readouterr()
    assert run(argv) == EXIT_ABORTED
    strerror = "Is a directory" if problem == "directory" else "No such file or directory"
    assert capsys.readouterr().err == f"error: {bad}: {strerror}\n"


def _corrupt(good: bytes, other_suite: bytes | None, kind: str) -> bytes:
    """The bytes of a bad input of the given kind, made from a good file's
    bytes and from those of the same kind of file for another suite."""
    if kind == "empty":
        return b""
    if kind == "deeply-nested":  # deeper than the JSON parser can recurse
        return b"[" * 100_000 + b"]" * 100_000 + b"\n"
    if kind == "bom":
        return codecs.BOM_UTF8 + good
    if kind == "invalid-utf8":
        cut = good.find(b"\n") + 1  # the start of line 2, if there is one
        return good[:cut] + b"\xe0" + good[cut:]  # a lead byte with no continuation
    if kind == "truncated":
        text = good.rstrip(b"\n")
        start = text.rfind(b"\n") + 1
        return text[:start + (len(text) - start) // 2]  # cut in the middle of the last line
    if kind in ("all-failed", "ff-failed"):  # every item, or every FF item, failed
        encode = line_encoder(TranslationRecord)
        records = [json.loads(line) for line in good.splitlines()]
        return "".join(
            encode(TranslationRecord.failed(r["source_id"], r["backend"], "HTTP 503"))
            if kind == "all-failed" or "-FF-" in r["source_id"] else json.dumps(r) + "\n"
            for r in records).encode("utf-8")
    assert kind == "wrong-suite" and other_suite is not None
    return other_suite


_BAD_KINDS = ("empty", "bom", "invalid-utf8", "truncated", "deeply-nested", "wrong-suite")
# A line list cut between two characters is a shorter list, a line list holds
# no JSON, and a config, a template or a line list belongs to no suite: those
# kinds apply to none of them.
# An OTSC translations file whose items all failed, or all those of one
# quadrant, leaves evaluate nothing to count.
_BAD_INPUTS = {("generate", "--occupations"): ("empty", "bom", "invalid-utf8"),
               ("generate", "--template"): _BAD_KINDS[:5],
               ("translate", "--sentences"): _BAD_KINDS,
               ("translate", "--config"): _BAD_KINDS[:5],
               ("evaluate", "--sentences"): _BAD_KINDS,
               ("evaluate", "--translations"): (*_BAD_KINDS, "all-failed", "ff-failed"),
               ("report", "reports"): _BAD_KINDS}


@pytest.mark.parametrize("command, option, kind",
                         [(*arg, kind) for arg, kinds in _BAD_INPUTS.items() for kind in kinds])
def test_a_bad_input_file_is_named(tmp_path, backends_config, capsys, command, option, kind):
    """An empty file, a byte order mark, invalid UTF-8, a truncated last line,
    JSON nested too deeply to parse or a file of another suite, given to any
    subcommand, and a translations file with nothing to count, given to
    evaluate, end in one line, error: <file>: ..., and exit code 1."""
    occupations = tmp_path / "occ.txt"
    occupations.write_text("डॉक्टर\nवकील\n", encoding="utf-8")
    files = {"otsc": tmp_path / "otsc.jsonl", "winomt": tmp_path / "winomt.jsonl"}
    assert run(["generate", "--occupations", str(occupations), "--out",
                str(files["otsc"])]) == EXIT_OK
    write_sentences(files["winomt"], build_winomt_corpus(8))
    for suite in ("otsc", "winomt"):
        files[f"tr-{suite}"], files[f"report-{suite}"] = (tmp_path / f"tr-{suite}.jsonl",
                                                          tmp_path / f"report-{suite}.json")
        assert run(["translate", "--sentences", str(files[suite]), "--config",
                    str(backends_config), "--backend", "echo-gold",
                    "--out", str(files[f"tr-{suite}"])]) == EXIT_OK
        assert run(["evaluate", "--sentences", str(files[suite]), "--translations",
                    str(files[f"tr-{suite}"]), "--suite", suite,
                    "--out", str(files[f"report-{suite}"])]) == EXIT_OK
    bad = tmp_path / "bad"  # a path without a manifest sidecar
    out = tmp_path / "out"
    argv, good, other = {
        ("generate", "--occupations"): (["generate", "--occupations", bad, "--out", out],
                                        occupations, None),
        ("generate", "--template"): (["generate", "--occupations", occupations,
                                      "--template", bad, "--out", out],
                                     data_path("otsc_template.json"), None),
        ("translate", "--sentences"): (["translate", "--sentences", bad, "--suite", "otsc",
                                        "--config", backends_config, "--backend", "echo-gold",
                                        "--out", out], files["otsc"], files["winomt"]),
        ("translate", "--config"): (["translate", "--sentences", files["otsc"],
                                     "--config", bad, "--backend", "echo-gold", "--out", out],
                                    backends_config, None),
        ("evaluate", "--sentences"): (["evaluate", "--sentences", bad, "--translations",
                                       files["tr-otsc"], "--suite", "otsc", "--out", out],
                                      files["otsc"], files["winomt"]),
        ("evaluate", "--translations"): (["evaluate", "--sentences", files["otsc"],
                                          "--translations", bad, "--suite", "otsc",
                                          "--out", out], files["tr-otsc"], files["tr-winomt"]),
        ("report", "reports"): (["report", files["report-otsc"], bad],
                                files["report-otsc"], files["report-winomt"]),
    }[command, option]
    bad.write_bytes(_corrupt(good.read_bytes(), other and other.read_bytes(), kind))
    capsys.readouterr()
    assert run(list(map(str, argv))) == EXIT_ABORTED
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1, err
    assert "Traceback" not in err and not out.exists()


@pytest.fixture(scope="module")
def evaluate_inputs(tmp_path_factory):
    """suite -> (sentences bytes, translations bytes) of a valid OTSC and a
    valid WinoMT pair, translated by coin_flip."""
    tmp = tmp_path_factory.mktemp("inputs")
    occupations, config = tmp / "occ.txt", tmp / "backends.json"
    occupations.write_text("डॉक्टर\nवकील\n", encoding="utf-8")
    config.write_text(json.dumps({"backends": [{"name": "coin", "kind": "mock", "mock": {
        "spec": "coin_flip", "seed": 7}}]}), encoding="utf-8")
    assert run(["generate", "--occupations", str(occupations),
                "--out", str(tmp / "otsc.jsonl")]) == EXIT_OK
    write_sentences(tmp / "winomt.jsonl", build_winomt_corpus(8))
    pairs = {}
    for suite in ("otsc", "winomt"):
        assert run(["translate", "--sentences", str(tmp / f"{suite}.jsonl"), "--suite", suite,
                    "--config", str(config), "--backend", "coin",
                    "--out", str(tmp / f"tr-{suite}.jsonl")]) == EXIT_OK
        pairs[suite] = ((tmp / f"{suite}.jsonl").read_bytes(),
                        (tmp / f"tr-{suite}.jsonl").read_bytes())
    return pairs


# bytes that a mutation writes: arbitrary ones, ASCII ones, JSON syntax, and
# the tokens of the records, so that a field can swap its value for another's
_PATCHES = (st.binary(max_size=2) | st.text("09az -", max_size=2).map(str.encode)
            | st.sampled_from([b"\n", b'"', b"{", b"}", b",", b":", b"\\", b"null", b"[]",
                               b"ok", b"failed", b"male", b"female", b"neutral", b"FF", b"MM",
                               b"pro", b"anti", b"otsc", b"winomt"]))


def _mutate(data, good: bytes, label: str) -> bytes:
    """good with up to three spans of up to two bytes each replaced by a patch."""
    mutated = bytearray(good)
    for _ in range(data.draw(st.integers(0, 3), label=f"{label} edits")):
        at = data.draw(st.integers(0, len(mutated)), label="at")
        mutated[at:at + data.draw(st.integers(0, 2), label="cut")] = data.draw(_PATCHES)
    return bytes(mutated)


@settings(max_examples=150, deadline=None)
@given(suite=st.sampled_from(["otsc", "winomt"]), data=st.data())
def test_evaluate_on_mutated_files_ends_in_a_named_error(evaluate_inputs, suite, data):
    """Bytes replaced, inserted or deleted anywhere in a valid sentences file
    and a valid translations file never escape cli.run: evaluate exits 0, or
    exits 1 with one line, error: <one of the two files>: ..."""
    good_sentences, good_translations = evaluate_inputs[suite]
    with tempfile.TemporaryDirectory() as tmp:
        sentences, translations = Path(tmp) / "sentences.jsonl", Path(tmp) / "tr.jsonl"
        sentences.write_bytes(_mutate(data, good_sentences, "sentences"))
        translations.write_bytes(_mutate(data, good_translations, "translations"))
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = run(["evaluate", "--sentences", str(sentences), "--translations",
                        str(translations), "--suite", suite, "--no-verify",
                        "--out", str(Path(tmp) / "report.json")])
    err = stderr.getvalue()
    if code == EXIT_OK:
        assert err == ""
    else:
        assert code == EXIT_ABORTED
        assert err.startswith((f"error: {sentences}: ", f"error: {translations}: ")), err
        assert err.count("\n") == 1, err


def _key_paths(node: dict, prefix: tuple = ()):
    for key, value in node.items():
        yield (*prefix, key)
        if isinstance(value, dict):
            yield from _key_paths(value, (*prefix, key))


_OTHER_VALUES = st.sampled_from([None, False, True, 0, 0.0, 16, 16.0, "16", "", [], {}])


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_a_resume_after_any_sidecar_mutation_keeps_the_output(finished_run, data):
    """Bytes replaced in a finished run's sidecar, a key deleted from it or a
    value of another type put in it never change what the resume does: exit
    0, the clean bytes, the full path's stdout and sidecar, no error."""
    argv, _, clean = finished_run
    with tempfile.TemporaryDirectory() as tmp:
        out, sidecar = Path(tmp) / "tr.jsonl", Path(tmp) / "tr.jsonl.manifest.json"
        out.write_bytes(clean)
        with contextlib.redirect_stdout(io.StringIO()):
            assert run([*argv, "--out", str(out)]) == EXIT_OK
        good = _sidecar_but_time(out)
        how = data.draw(st.sampled_from(["bytes", "delete", "retype"]), label="mutation")
        if how == "bytes":
            sidecar.write_bytes(_mutate(data, sidecar.read_bytes(), "sidecar"))
        else:
            manifest = read_report(sidecar)
            *parents, key = data.draw(st.sampled_from(list(_key_paths(manifest))), label="key")
            node = manifest
            for parent in parents:
                node = node[parent]
            if how == "delete":
                del node[key]
            else:
                node[key] = data.draw(_OTHER_VALUES.filter(
                    lambda value: type(value) is not type(node[key])), label="value")
            sidecar.write_text(json.dumps(manifest), encoding="utf-8")
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = run([*argv, "--out", str(out)])
        assert (code, stderr.getvalue()) == (EXIT_OK, "")
        assert stdout.getvalue() == "translated 16/16 ok (0 failed, 16 reused) via coin\n"
        assert out.read_bytes() == clean and _sidecar_but_time(out) == good


def test_each_jsonl_input_is_read_once(tmp_path, otsc_setup, backends_config, monkeypatch):
    """translate and evaluate digest each JSONL input as they parse it, and
    the report from the text they write: each input is opened once, and
    sha256_file reads none of these files."""
    import builtins
    import mtgender.fileio
    import mtgender.manifest

    _, sentences = otsc_setup
    translations, report = tmp_path / "tr.jsonl", tmp_path / "r.json"
    opened, hashed = [], []
    real_open, sha256_file = builtins.open, mtgender.fileio.sha256_file
    monkeypatch.setattr(builtins, "open", lambda file, *args, **kwargs:
                        opened.append(str(file)) or real_open(file, *args, **kwargs))
    for module in (mtgender.fileio, mtgender.manifest):
        monkeypatch.setattr(module, "sha256_file",
                            lambda path: hashed.append(str(path)) or sha256_file(path))
    assert run(["translate", "--sentences", str(sentences), "--config", str(backends_config),
                "--backend", "echo-gold", "--out", str(translations)]) == EXIT_OK
    assert opened.count(str(sentences)) == 1
    opened.clear()
    assert run(["evaluate", "--sentences", str(sentences), "--translations",
                str(translations), "--suite", "otsc", "--out", str(report)]) == EXIT_OK
    assert opened.count(str(sentences)) == opened.count(str(translations)) == 1
    assert hashed == []

    monkeypatch.undo()
    manifest = read_report(Path(f"{report}.manifest.json"))
    assert manifest["output"]["sha256"] == sha256_file(report)
    assert {name: ref["sha256"] for name, ref in manifest["inputs"].items()} == {
        "sentences": sha256_file(sentences), "translations": sha256_file(translations)}


_OUTPUTS = ("he is here", "she is here", "they are here", "he and she", "hers is here", "his work")


def _stream_inputs(suite: str, size: int, rng) -> tuple[list[SourceSentence], list]:
    """size sentences of suite, their groups and golds drawn by rng, and a
    translation of each in shuffled order, one in ten failed."""
    genders = {"M": GenderLabel.MALE, "F": GenderLabel.FEMALE}
    occupations = [MALE_OCC, FEMALE_OCC, "माली"]
    sentences = []
    for i in range(size):
        text = f"वाक्य {i}"
        if suite == "otsc":
            quadrant = OTSC_QUADRANTS[i % 4]
            sentences.append(SourceSentence(
                f"o-{i}", text, Suite.OTSC, quadrant, gold_gender=genders[quadrant[1]],
                speaker_gender=genders[quadrant[0]], occupation="डॉक्टर"))
        elif suite == "winomt":
            sentences.append(SourceSentence(
                f"w-{i}", text, Suite.WINOMT, "synthetic",
                gold_gender=rng.choice(list(genders.values())),
                occupation=rng.choice(occupations), stereotype=rng.choice(list(Stereotype)),
                referenced_entity=ReferencedEntity.ENTITY1))
        else:
            sentences.append(SourceSentence(f"n-{i}", text, Suite.NEUTRAL,
                                            rng.choice(NEUTRAL_SET_IDS)))
    records = [TranslationRecord.failed(s.id, "b", "HTTP 503") if rng.random() < 0.1
               else TranslationRecord.ok(s.id, rng.choice(_OUTPUTS), rng.choice("ab"))
               for s in sentences]
    rng.shuffle(records)
    return sentences, records


@settings(max_examples=30, deadline=None)
@given(suite=st.sampled_from(["otsc", "winomt", "neutral"]),
       size=st.sampled_from([1, 5, 1023, 1024, 1025, 2049]),
       strict=st.booleans(), neutral_as_positive=st.booleans(), lists=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_evaluate_reports_what_the_whole_file_gives(suite, size, strict, neutral_as_positive,
                                                    lists, seed):
    """The report evaluate writes, counting each translation as it is read,
    holds the numbers compute_* give for the whole file classified at once,
    equal as floats; where those raise, evaluate ends in the same error. The
    inputs are drawn from a seeded generator: thousands of draws are more
    than Hypothesis can shrink."""
    sentences, records = _stream_inputs(suite, size, random.Random(seed))
    lists = lists and suite == "winomt"
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        sentences_path, translations, report = tmp / "s.jsonl", tmp / "tr.jsonl", tmp / "r.json"
        write_sentences(sentences_path, sentences)
        write_translations(translations, records)
        (tmp / "male.txt").write_text(f"{MALE_OCC}\n", encoding="utf-8")
        (tmp / "female.txt").write_text(f"{FEMALE_OCC}\n", encoding="utf-8")
        argv = ["evaluate", "--sentences", str(sentences_path), "--translations",
                str(translations), "--suite", suite, "--out", str(report)]
        argv += ["--strict"] * strict + ["--neutral-as-positive"] * neutral_as_positive
        if lists:
            argv += ["--male-stereotypes", str(tmp / "male.txt"),
                     "--female-stereotypes", str(tmp / "female.txt")]
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = run(argv)

        index = {s.id: s for s in sentences}
        if lists:
            read = StereotypeLists.from_files(tmp / "male.txt", tmp / "female.txt")
            index = {k: replace(s, stereotype=assign_stereotype(s.occupation, s.gold_gender, read))
                     for k, s in index.items()}
        lexicon = PronounLexicon.strict() if strict else PronounLexicon.default()
        translated = read_translations(translations)
        classified = [ClassifiedRecord(index[t.source_id], t.target_text,
                                       *classify_gender(t.target_text, lexicon))
                      for t in translated if t.status is TranslationStatus.OK]
        failed = len(translated) - len(classified)
        try:
            if not classified:
                raise MetricsError("no successful translations to evaluate")
            if suite == "winomt":
                expected = compute_winomt(classified, strict_neutral=strict,
                                          neutral_as_positive=neutral_as_positive)
            elif suite == "otsc":
                expected = compute_otsc(classified)
            else:
                expected = compute_tgbi_report(classified)
        except MetricsError as exc:
            assert (code, stderr.getvalue()) == (EXIT_ABORTED, f"error: {translations}: {exc}\n")
            return
        assert (code, stderr.getvalue()) == (EXIT_OK, "")
        payload = read_report(report)
    assert payload["metrics"] == json.loads(json.dumps(asdict(expected)))
    assert payload["counts"]["translated_ok"] == len(classified)
    assert payload["counts"]["translated_failed"] == failed
    assert payload["backend"] == "+".join(sorted({r.backend for r in records}))


def _held_for_two_at_most(items, refs: list):
    """Yield items, noting a weak reference to each: by the time item k is
    taken, item k-2 must be gone."""
    for item in items:
        if len(refs) >= 2:
            assert refs[-2]() is None, f"item {len(refs) - 2} is kept"
        refs.append(weakref.ref(item))
        yield item


def test_evaluate_holds_no_sentence_and_no_translation(tmp_path, monkeypatch):
    """evaluate reads the sentences one at a time, holding none: by the time
    sentence k is read, sentence k-2 is gone, and every sentence is gone
    before a translation is read; by the time translation k is read,
    translation k-2 is gone."""
    sentences = build_winomt_corpus(200)
    records = [TranslationRecord.failed(s.id, "x", "HTTP 503") if i % 5 == 0
               else TranslationRecord.ok(s.id, "he said", "x") for i, s in enumerate(sentences)]
    write_sentences(tmp_path / "s.jsonl", sentences)
    write_translations(tmp_path / "tr.jsonl", records)
    del sentences, records
    iter_sentences, iter_translations = mtgender.cli.iter_sentences, mtgender.cli.iter_translations
    sentence_refs, translation_refs = [], []  # weak references to what evaluate read

    def translations_spy(*args, **kwargs):
        for translation in _held_for_two_at_most(iter_translations(*args, **kwargs),
                                                 translation_refs):
            assert all(ref() is None for ref in sentence_refs)
            yield translation

    monkeypatch.setattr(mtgender.cli, "iter_sentences", lambda *args, **kwargs:
                        _held_for_two_at_most(iter_sentences(*args, **kwargs), sentence_refs))
    monkeypatch.setattr(mtgender.cli, "iter_translations", translations_spy)
    assert run(["evaluate", "--sentences", str(tmp_path / "s.jsonl"), "--translations",
                str(tmp_path / "tr.jsonl"), "--suite", "winomt",
                "--out", str(tmp_path / "r.json")]) == EXIT_OK
    assert (len(sentence_refs), len(translation_refs)) == (200, 200)


def test_generate_holds_no_sentence(tmp_path, monkeypatch):
    """generate writes each sentence as it is made: by the time sentence k
    is made, sentence k-2 is gone."""
    occupations = tmp_path / "occ.txt"
    occupations.write_text("".join(f"पेशा {i}\n" for i in range(50)), encoding="utf-8")
    iter_otsc, refs = mtgender.cli.iter_otsc, []
    monkeypatch.setattr(mtgender.cli, "iter_otsc", lambda *args, **kwargs:
                        _held_for_two_at_most(iter_otsc(*args, **kwargs), refs))
    assert run(["generate", "--occupations", str(occupations),
                "--out", str(tmp_path / "s.jsonl")]) == EXIT_OK
    assert len(refs) == 200


# a fresh process runs one stage as its only child, so the children's peak
# RSS is that stage's: within one process it only ever grows
_PEAK_RSS_KIB = ("import resource, subprocess, sys; "
                 "subprocess.run(sys.argv[1:], check=True, stdout=subprocess.DEVNULL); "
                 "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)")


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in KiB on Linux")
def test_generate_and_evaluate_memory_does_not_grow_with_the_sentence_list(tmp_path):
    """generate and evaluate hold no sentence list: from n occupations to 4n,
    generate's peak RSS stays flat, and evaluate's grows only by its id
    index, about 250 bytes a sentence. Holding the list, they grew by 9 and
    13 MB from 1,500 occupations to 6,000."""
    src = str(Path(mtgender.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def peak_mib(*argv: str) -> float:
        result = subprocess.run([sys.executable, "-c", _PEAK_RSS_KIB, sys.executable, "-m",
                                 "mtgender", *argv], env=env, capture_output=True, text=True,
                                check=True)
        return int(result.stdout) / 1024

    peaks = {}
    for n in (1500, 6000):
        occupations, sentences = tmp_path / f"occ-{n}.txt", tmp_path / f"s-{n}.jsonl"
        translations = tmp_path / f"tr-{n}.jsonl"
        occupations.write_text("".join(f"पेशा {i}\n" for i in range(n)), encoding="utf-8")
        generate = peak_mib("generate", "--occupations", str(occupations), "--out", str(sentences))
        write_translations(translations, (
            TranslationRecord.ok(f"otsc-{quadrant}-{i:05d}", ("he", "she")[i % 2], "x")
            for i in range(n) for quadrant in OTSC_QUADRANTS))
        evaluate = peak_mib("evaluate", "--sentences", str(sentences), "--translations",
                            str(translations), "--suite", "otsc", "--out", str(tmp_path / "r.json"))
        peaks[n] = generate, evaluate
    (generate_n, evaluate_n), (generate_4n, evaluate_4n) = peaks.values()
    assert generate_4n - generate_n < 3
    assert evaluate_4n - evaluate_n < 4 * 4500 * 350 / 2**20  # 350 bytes an added sentence
