import contextlib
import gc
import io
import json
import os
import subprocess
import sys
import tempfile
import threading
import time
import warnings
import weakref
from collections import Counter
from dataclasses import replace
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mtgender
from mtgender.backends import (
    MAX_WAIT_S,
    BackendConfig,
    BackendError,
    BackendKind,
    MockSpec,
    RetryPolicy,
    TranslationRecord,
    TranslationStatus,
    _HttpTranslator,
    _RateLimiter,
    _retry_after_s,
    backend_config_from_dict,
    find_backend_entry,
    mock_translate,
    translate_batch,
)
from mtgender.classify import classify_gender
from mtgender.cli import EXIT_ABORTED, EXIT_OK, EXIT_PARTIAL, run
from mtgender.corpus import (
    GenderLabel, SourceSentence, StereotypeLists, Suite, write_sentences,
)
from mtgender.fileio import line_encoder, record_decoder
from mtgender.templates import iter_otsc

from conftest import (
    FEMALE_OCC, MALE_OCC, build_winomt_corpus, read_translations, write_translations,
)
from oracles import oracle_replay_map


def mock_config(spec: MockSpec, **kwargs) -> BackendConfig:
    return BackendConfig(name=f"mock-{spec.kind}", kind=BackendKind.MOCK, mock=spec, **kwargs)


def http_config(url, *, auth_env=None, headers=None, **kwargs) -> BackendConfig:
    template = {
        "body": {"q": "{text}", "source": "hi", "target": "en"},
        "response_path": "data.translations.0.translatedText",
    }
    if headers:
        template["headers"] = headers
    defaults = dict(retry=RetryPolicy(max_attempts=3, backoff_base_ms=1), timeout_s=5.0)
    defaults.update(kwargs)
    return BackendConfig(
        name="http-test", kind=BackendKind.HTTP, endpoint=url, auth_env=auth_env,
        request_template=template, **defaults,
    )


def load_backend_config(path, name) -> BackendConfig:
    return backend_config_from_dict(find_backend_entry(path, name), path)


def plain_source(i, text):
    return SourceSentence(id=f"s{i:03d}", text=text, suite=Suite.WINOMT, set_id="main",
                          gold_gender=GenderLabel.MALE)


# --------------------------------------------------------------------------
# Mocks


_RENDERED = {  # (gender, occupation) -> the text each mock renders for it
    ("male", "डॉक्टर"): "I have known him for a long time, my friend works as a डॉक्टर.",
    ("male", None): "I have known him for a long time, he is a good friend.",
    ("female", "डॉक्टर"): "I have known her for a long time, my friend works as a डॉक्टर.",
    ("female", None): "I have known her for a long time, she is a good friend.",
    ("neutral", "डॉक्टर"):
        "I have known my friend for a long time, my friend works as a डॉक्टर.",
    ("neutral", None): "I have known my friend for a long time, we meet often.",
}


def _lists(male, female):
    return StereotypeLists(frozenset({male}), frozenset({female}))


@pytest.mark.parametrize("spec, gold, occupation, gender", [
    (MockSpec("always_male"), GenderLabel.FEMALE, "डॉक्टर", "male"),
    (MockSpec("always_male"), GenderLabel.FEMALE, None, "male"),
    (MockSpec("always_female"), GenderLabel.MALE, "डॉक्टर", "female"),
    (MockSpec("always_female"), GenderLabel.MALE, None, "female"),
    (MockSpec("neutralizing"), GenderLabel.MALE, "डॉक्टर", "neutral"),
    (MockSpec("neutralizing"), GenderLabel.FEMALE, None, "neutral"),
    (MockSpec("echo_gold"), GenderLabel.MALE, None, "male"),
    (MockSpec("echo_gold"), GenderLabel.FEMALE, "डॉक्टर", "female"),
    (MockSpec("coin_flip", p_male=1.0), GenderLabel.FEMALE, None, "male"),
    (MockSpec("coin_flip", p_male=0.0), GenderLabel.MALE, "डॉक्टर", "female"),
    (MockSpec("stereotype_follower", lists=_lists("डॉक्टर", "नर्स")), GenderLabel.FEMALE,
     "डॉक्टर", "male"),
    (MockSpec("stereotype_follower", lists=_lists("माली", "डॉक्टर")), GenderLabel.MALE,
     "डॉक्टर", "female"),
    (MockSpec("stereotype_follower", lists=_lists("माली", "नर्स")), GenderLabel.FEMALE,
     "डॉक्टर", "male"),  # unlisted: the masculine default
], ids=["always_male", "always_male-bare", "always_female", "always_female-bare",
        "neutralizing", "neutralizing-bare", "echo_gold-bare", "echo_gold", "coin_flip-bare",
        "coin_flip", "stereotype_follower-male_listed", "stereotype_follower-female_listed",
        "stereotype_follower-unlisted"])
def test_each_mock_renders_the_gender_it_picks(spec, gold, occupation, gender):
    source = SourceSentence("s1", "वाक्य", Suite.WINOMT, "main", gold_gender=gold,
                            occupation=occupation)
    assert mock_translate(source, spec) == _RENDERED[gender, occupation]


class TestMockTranslate:
    def test_always_male_pinned_rendering(self):
        sentences = list(iter_otsc(["डॉक्टर"]))
        for sentence in sentences:
            text = mock_translate(sentence, MockSpec("always_male"))
            assert text == "I have known him for a long time, my friend works as a डॉक्टर."

    def test_always_female_pronouns_only(self):
        for sentence in build_winomt_corpus(8):
            label, tokens = classify_gender(mock_translate(sentence, MockSpec("always_female")))
            assert label is GenderLabel.FEMALE and tokens

    def test_echo_gold_follows_gold(self):
        for sentence in build_winomt_corpus(8):
            label, _ = classify_gender(mock_translate(sentence, MockSpec("echo_gold")))
            assert label is sentence.gold_gender

    def test_echo_gold_requires_gold(self):
        orphan = SourceSentence(id="n1", text="वह ठीक है", suite=Suite.NEUTRAL, set_id="S1")
        with pytest.raises(BackendError, match="gold"):
            mock_translate(orphan, MockSpec("echo_gold"))

    def test_neutralizing_has_no_pronouns(self):
        for sentence in build_winomt_corpus(8):
            label, tokens = classify_gender(mock_translate(sentence, MockSpec("neutralizing")))
            assert label is GenderLabel.NEUTRAL and not tokens

    def test_coin_flip_reproducible(self):
        corpus = build_winomt_corpus(100)
        spec = MockSpec("coin_flip", seed=7, p_male=0.5)
        first = [mock_translate(s, spec) for s in corpus]
        second = [mock_translate(s, spec) for s in corpus]
        assert first == second

    def test_coin_flip_order_independent(self):
        corpus = build_winomt_corpus(20)
        spec = MockSpec("coin_flip", seed=7, p_male=0.5)
        forward = {s.id: mock_translate(s, spec) for s in corpus}
        backward = {s.id: mock_translate(s, spec) for s in reversed(corpus)}
        assert forward == backward

    def test_coin_flip_extremes(self):
        corpus = build_winomt_corpus(20)
        all_male = [classify_gender(mock_translate(s, MockSpec("coin_flip", seed=1, p_male=1.0)))[0]
                    for s in corpus]
        assert set(all_male) == {GenderLabel.MALE}
        all_female = [classify_gender(mock_translate(s, MockSpec("coin_flip", seed=1, p_male=0.0)))[0]
                      for s in corpus]
        assert set(all_female) == {GenderLabel.FEMALE}

    def test_coin_flip_seed_changes_output(self):
        corpus = build_winomt_corpus(40)
        a = [mock_translate(s, MockSpec("coin_flip", seed=1, p_male=0.5)) for s in corpus]
        b = [mock_translate(s, MockSpec("coin_flip", seed=2, p_male=0.5)) for s in corpus]
        assert a != b

    def test_stereotype_follower(self, synthetic_lists):
        spec = MockSpec("stereotype_follower", lists=synthetic_lists)
        male_listed = plain_source(1, f"{MALE_OCC} वाक्य")
        female_listed = plain_source(2, f"{FEMALE_OCC} वाक्य")
        unlisted = plain_source(3, "माली वाक्य")
        by_occ = {
            MALE_OCC: GenderLabel.MALE,
            FEMALE_OCC: GenderLabel.FEMALE,
            "माली": GenderLabel.MALE,  # masculine default
        }
        for source, occupation in ((male_listed, MALE_OCC), (female_listed, FEMALE_OCC),
                                   (unlisted, "माली")):
            source = replace(source, occupation=occupation)
            label, _ = classify_gender(mock_translate(source, spec))
            assert label is by_occ[occupation]

    def test_unknown_kind_rejected(self):
        with pytest.raises(BackendError, match="unknown mock kind"):
            MockSpec("surprise")

    def test_bad_probability_rejected(self):
        with pytest.raises(BackendError, match="p_male"):
            MockSpec("coin_flip", p_male=1.5)

    def test_stereotype_follower_needs_lists(self):
        with pytest.raises(BackendError, match="lists"):
            MockSpec("stereotype_follower")


# --------------------------------------------------------------------------
# translate_batch core contracts


class TestTranslateBatch:
    def test_order_and_length_preserved(self):
        corpus = build_winomt_corpus(40)
        records = []
        translate_batch(corpus, mock_config(MockSpec("echo_gold"), batch_size=7), records.extend)
        assert [r.source_id for r in records] == [s.id for s in corpus]
        assert all(r.status is TranslationStatus.OK for r in records)

    def test_source_id_multiset_preserved(self):
        corpus = build_winomt_corpus(24)
        records = []
        translate_batch(corpus, mock_config(MockSpec("always_male"), batch_size=5), records.extend)
        assert Counter(r.source_id for r in records) == Counter(s.id for s in corpus)

    def test_empty_sources_rejected(self):
        with pytest.raises(BackendError, match="no sources"):
            translate_batch([], mock_config(MockSpec("always_male")), lambda batch: None)

    def test_on_batch_sees_everything_in_order(self):
        corpus = build_winomt_corpus(20)
        flushed = []
        translate_batch(corpus, mock_config(MockSpec("echo_gold"), batch_size=6),
                        on_batch=flushed.extend)
        assert [r.source_id for r in flushed] == [s.id for s in corpus]

    @pytest.mark.parametrize("backend", ["mock", "http"])
    def test_a_batch_handed_over_is_not_kept(self, request, backend):
        """When batch k is handed to on_batch, every record of batch k-2 is
        gone: translate_batch keeps none of the records it hands over."""
        if backend == "mock":
            sources = build_winomt_corpus(32)[:30]
            config = mock_config(MockSpec("echo_gold"), batch_size=4)
        else:
            url, _ = request.getfixturevalue("http_server")
            sources = [plain_source(i, f"वाक्य {i}") for i in range(30)]
            config = http_config(url, max_concurrency=2, batch_size=4)
        handed = []

        def on_batch(batch):
            handed.append([weakref.ref(r) for r in batch])
            for k, refs in enumerate(handed[:-2]):
                assert [ref() for ref in refs] == [None] * len(refs), f"batch {k} is kept"

        assert translate_batch(sources, config, on_batch) == 0
        assert [len(refs) for refs in handed] == [4] * 7 + [2]

    def test_file_replay_full_coverage(self, tmp_path, occupations_1071):
        from mtgender.corpus import load_occupations

        corpus = list(iter_otsc(load_occupations(occupations_1071)))
        assert len(corpus) == 4284
        replay_path = tmp_path / "replay.jsonl"
        source_records = []
        translate_batch(corpus, mock_config(MockSpec("echo_gold")), source_records.extend)
        write_translations(replay_path, source_records)
        config = BackendConfig(name="replay", kind=BackendKind.FILE_REPLAY,
                               replay_path=str(replay_path))
        records = []
        translate_batch(corpus, config, records.extend)
        assert len(records) == 4284
        assert all(r.status is TranslationStatus.OK for r in records)
        assert [r.target_text for r in records] == [r.target_text for r in source_records]

    def test_file_replay_missing_ids_fail_without_drop(self, tmp_path):
        corpus = build_winomt_corpus(12)
        replay_path = tmp_path / "replay.jsonl"
        kept = []
        translate_batch(corpus[:9], mock_config(MockSpec("echo_gold")), kept.extend)
        write_translations(replay_path, kept)
        config = BackendConfig(name="replay", kind=BackendKind.FILE_REPLAY,
                               replay_path=str(replay_path))
        records = []
        assert translate_batch(corpus, config, records.extend) == 3  # the failed ones
        assert len(records) == 12
        failed = [r for r in records if r.status is TranslationStatus.FAILED]
        assert len(failed) == 3
        assert all(r.reason == "missing translation" for r in failed)

    def test_file_replay_skips_failed_lines(self, tmp_path):
        replay_path = tmp_path / "replay.jsonl"
        write_translations(replay_path, [
            TranslationRecord.ok("a", "He is here.", "x"),
            TranslationRecord.failed("b", "x", "HTTP 500"),
        ])
        config = BackendConfig(name="replay", kind=BackendKind.FILE_REPLAY,
                               replay_path=str(replay_path))
        records = []
        translate_batch([replace(s, id=i) for s, i in zip(build_winomt_corpus(4), "ab")],
                        config, records.extend)
        assert [(r.source_id, r.target_text, r.status) for r in records] == [
            ("a", "He is here.", TranslationStatus.OK), ("b", "", TranslationStatus.FAILED)]

    def test_missing_replay_file_aborts(self):
        config = BackendConfig(name="replay", kind=BackendKind.FILE_REPLAY,
                               replay_path="/nonexistent/replay.jsonl")
        with pytest.raises(FileNotFoundError):
            translate_batch(build_winomt_corpus(4), config, lambda batch: None)


# --------------------------------------------------------------------------
# The replay walk: a replay file is read in step with the sentences


# the lines of one id in a replay file, in file order
_REPLAY_LINES = {"none": (), "ok": ("ok",), "failed": ("failed",),
                 "failed then ok": ("failed", "ok"), "ok then failed": ("ok", "failed"),
                 "failed twice": ("failed", "failed")}

# the replay walk's hash of an id: the real one, or one that all ids or half of them share
_HASHES = {"hash": hash, "one": lambda _: 42, "two": lambda source_id: len(source_id) % 2}


def _replay_line(source_id: str, kind: str, bare: bool = False) -> str:
    """A replay line of source_id: failed, or OK and bare or a full record."""
    if kind == "failed":
        record = TranslationRecord.failed(source_id, "x", "HTTP 503")
    elif bare:
        return json.dumps({"source_id": source_id, "target_text": f"He read {source_id}."}) + "\n"
    else:
        record = TranslationRecord.ok(source_id, f"He read {source_id}.", "x")
    return line_encoder(TranslationRecord)(record)


def _replay_translate(tmp: Path, sentences, lines, batch_size: int = 32, out: str = "tr.jsonl",
                      fresh: bool = True) -> tuple[int, str, Path]:
    """translate, fresh unless told not to be, of sentences through a
    file_replay backend of the replay file tmp/replay.jsonl, whose lines are
    written when given: (exit code, stderr, the output)."""
    if lines is not None:
        (tmp / "replay.jsonl").write_text("".join(lines), encoding="utf-8")
    write_sentences(tmp / "s.jsonl", sentences)
    (tmp / "backends.json").write_text(json.dumps({"backends": [
        {"name": "replay", "kind": "file_replay", "replay_path": "replay.jsonl",
         "batch_size": batch_size}]}), encoding="utf-8")
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = run(["translate", "--sentences", str(tmp / "s.jsonl"), "--config",
                    str(tmp / "backends.json"), "--backend", "replay", "--out", str(tmp / out),
                    *["--fresh"][:fresh]])
    return code, stderr.getvalue(), tmp / out


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data(), size=st.integers(1, 10), extra=st.integers(0, 3),
       batch_size=st.integers(1, 4), hashes=st.sampled_from(sorted(_HASHES)))
def test_the_replay_walk_writes_what_the_map_of_the_file_gives(data, size, extra, batch_size,
                                                               hashes):
    """A replay file in any order, with ids missing, failed lines, a failed
    and an OK line of one id, bare lines and ids of no sentence: translate
    writes the bytes that serving each sentence from the map of the whole
    file gives, also when all ids, or half of them, share one hash."""
    sentences = build_winomt_corpus(12)[:size]
    ids = [s.id for s in sentences] + [f"extra-{k}" for k in range(extra)]
    lines = [_replay_line(source_id, kind, data.draw(st.booleans()))
             for source_id in ids
             for kind in _REPLAY_LINES[data.draw(st.sampled_from(sorted(_REPLAY_LINES)))]]
    lines = data.draw(st.permutations(lines))
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(mtgender.backends, "_id_hash", _HASHES[hashes]):
        code, err, out = _replay_translate(Path(tmp), sentences, lines, batch_size)
        served = oracle_replay_map(Path(tmp) / "replay.jsonl")
        written = out.read_bytes()
    expected = [TranslationRecord.ok(s.id, served[s.id], "replay") if s.id in served else
                TranslationRecord.failed(s.id, "replay", "missing translation") for s in sentences]
    assert (code, err) == (EXIT_OK if len(served.keys() & set(ids[:size])) == size
                           else EXIT_PARTIAL, "")
    assert written == "".join(map(line_encoder(TranslationRecord), expected)).encode("utf-8")


@pytest.mark.parametrize("hashes", ["hash", "one"])
@pytest.mark.parametrize("lines, line, first", [
    (["ok 0", "ok 1", "ok 0"], 3, 1),  # the first served as it was read
    (["ok 1", "ok 1", "ok 0"], 2, 1),  # both read ahead
    (["ok 1", "ok 0", "ok 1"], 3, 1),  # the first read ahead and served
    (["failed 0", "ok 0", "ok 1", "failed 0", "ok 0"], 5, 2),
    (["ok 0", "ok 1", "ok 2", "ok 2"], 4, 3),  # after the last sentence
], ids=["served as read", "read ahead", "served from ahead", "failed lines between",
        "after the last sentence"])
def test_a_duplicate_ok_id_in_the_replay_file_is_refused(tmp_path, monkeypatch, lines, line,
                                                         first, hashes):
    """A second OK line of one source_id ends translate in error: <replay>:
    line N: duplicate source_id '<id>' (first seen on line M), failed lines
    not counting, wherever the walk reads the two, and also when every id
    shares one hash."""
    monkeypatch.setattr(mtgender.backends, "_id_hash", _HASHES[hashes])
    sentences = build_winomt_corpus(4)[:2]
    ids = [s.id for s in sentences] + ["extra"]
    lines = [_replay_line(ids[int(k)], kind) for kind, k in map(str.split, lines)]
    code, err, out = _replay_translate(tmp_path, sentences, lines)
    duplicate = json.loads(lines[line - 1])["source_id"]
    assert (code, err) == (EXIT_ABORTED, f"error: {tmp_path / 'replay.jsonl'}: line {line}: "
                           f"duplicate source_id {duplicate!r} (first seen on line {first})\n")
    assert not out.exists()


@pytest.mark.parametrize("size", [8, 9], ids=["a short last batch", "a full last batch"])
def test_a_bad_replay_line_after_the_last_id_needed_ends_the_run_with_its_journal(tmp_path,
                                                                                   size):
    """A bad line after the last line a sentence needs is still read, before
    the last batch is journaled: the run exits 1 and names it, writes no
    output, and keeps the batches before the last in the journal, as a clean
    run writes their lines. A resume translates the last batch, so it reads
    the replay file again and ends in the same error until the line is
    fixed; then it writes the clean run's bytes."""
    sentences = build_winomt_corpus(12)[:size]
    lines = [_replay_line(s.id, "ok") for s in sentences]
    assert _replay_translate(tmp_path, sentences, lines, 3, "clean.jsonl")[:2] == (EXIT_OK, "")
    clean = (tmp_path / "clean.jsonl").read_bytes()
    error = (EXIT_ABORTED, f"error: {tmp_path / 'replay.jsonl'}: line {size + 1}: "
             "invalid JSON (Expecting property name enclosed in double quotes)\n")
    code, err, out = _replay_translate(tmp_path, sentences, [*lines, "{\n"], 3)
    assert (code, err) == error
    assert not out.exists()
    journal = Path(f"{out}.partial")
    assert journal.read_bytes() == b"".join(clean.splitlines(keepends=True)[:6])
    assert _replay_translate(tmp_path, sentences, None, 3, fresh=False)[:2] == error
    assert not out.exists()
    assert journal.read_bytes() == b"".join(clean.splitlines(keepends=True)[:6])
    assert _replay_translate(tmp_path, sentences, lines, 3, fresh=False)[:2] == (EXIT_OK, "")
    assert out.read_bytes() == clean


def test_an_id_whose_only_replay_line_failed_is_a_missing_translation(tmp_path):
    """A sentence whose id has only failed lines in the replay file comes
    back as a failed record, missing translation, and the run exits 3."""
    sentences = build_winomt_corpus(4)[:3]
    lines = [_replay_line(sentences[0].id, "ok"), _replay_line(sentences[1].id, "failed"),
             _replay_line(sentences[2].id, "failed"), _replay_line(sentences[2].id, "ok")]
    code, err, out = _replay_translate(tmp_path, sentences, lines)
    assert (code, err) == (EXIT_PARTIAL, "")
    assert read_translations(out) == [
        TranslationRecord.ok(sentences[0].id, f"He read {sentences[0].id}.", "replay"),
        TranslationRecord.failed(sentences[1].id, "replay", "missing translation"),
        TranslationRecord.ok(sentences[2].id, f"He read {sentences[2].id}.", "replay")]


# --------------------------------------------------------------------------
# Config plumbing


class TestBackendConfig:
    def test_http_requires_endpoint_and_template(self):
        with pytest.raises(BackendError, match="endpoint"):
            BackendConfig(name="x", kind=BackendKind.HTTP)

    def test_replay_requires_path(self):
        with pytest.raises(BackendError, match="replay_path"):
            BackendConfig(name="x", kind=BackendKind.FILE_REPLAY)

    def test_mock_requires_spec(self):
        with pytest.raises(BackendError, match="mock spec"):
            BackendConfig(name="x", kind=BackendKind.MOCK)

    def test_positive_knobs_enforced(self):
        with pytest.raises(BackendError, match="batch_size"):
            mock_config(MockSpec("always_male"), batch_size=0)
        with pytest.raises(BackendError, match="max_concurrency"):
            mock_config(MockSpec("always_male"), max_concurrency=0)
        with pytest.raises(BackendError, match="rate_limit"):
            mock_config(MockSpec("always_male"), rate_limit=0)
        with pytest.raises(BackendError, match="max_attempts"):
            RetryPolicy(max_attempts=0)

    def test_load_by_name(self, backends_config):
        config = load_backend_config(backends_config, "coin")
        assert config.kind is BackendKind.MOCK
        assert config.mock.kind == "coin_flip"
        assert config.mock.seed == 7

    def test_unknown_name_lists_known(self, backends_config):
        with pytest.raises(BackendError, match="echo-gold"):
            load_backend_config(backends_config, "missing")

    def test_relative_replay_path_resolved(self, backends_config, tmp_path):
        config = load_backend_config(backends_config, "replay")
        assert config.replay_path == str(tmp_path / "replay.jsonl")

    def test_malformed_config(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(BackendError, match="invalid JSON"):
            load_backend_config(path, "x")

    def test_stereotype_mock_from_dict(self, tmp_path):
        male = tmp_path / "male.txt"
        female = tmp_path / "female.txt"
        male.write_text(f"{MALE_OCC}\n", encoding="utf-8")
        female.write_text(f"{FEMALE_OCC}\n", encoding="utf-8")
        config = backend_config_from_dict({
            "name": "stereo", "kind": "mock",
            "mock": {"spec": "stereotype_follower",
                     "male_list": "male.txt", "female_list": "female.txt"},
        }, tmp_path / "backends.json")
        assert MALE_OCC in config.mock.lists.male_stereotyped


    def test_overlapping_stereotype_mock_lists_name_both_files(self, tmp_path):
        same = tmp_path / "list.txt"
        same.write_text(f"{MALE_OCC}\n", encoding="utf-8")
        config = tmp_path / "backends.json"
        with pytest.raises(BackendError) as excinfo:
            backend_config_from_dict({
                "name": "stereo", "kind": "mock",
                "mock": {"spec": "stereotype_follower",
                         "male_list": "list.txt", "female_list": "list.txt"},
            }, config)
        assert str(excinfo.value) == \
            f"{config}: {same} and {same}: stereotype lists overlap: {MALE_OCC}"

class TestTranslationRecordSerialization:
    def test_round_trip(self):
        records = [
            TranslationRecord.ok("a", "He is here.", "x"),
            TranslationRecord.failed("b", "x", "HTTP 500"),
        ]
        decode = record_decoder(TranslationRecord, BackendError)
        encode = line_encoder(TranslationRecord)
        assert [decode(json.loads(encode(r)), "test", 1) for r in records] == records

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "tr.jsonl"
        records = [TranslationRecord.ok("a", "She left.", "x"),
                   TranslationRecord.failed("b", "x", "timeout")]
        write_translations(path, records)
        assert read_translations(path) == records

    def test_empty_target_becomes_failed(self):
        record = TranslationRecord.ok("a", "", "x")
        assert record.status is TranslationStatus.FAILED
        assert record.reason == "empty translation"


# --------------------------------------------------------------------------
# HTTP backend against a local server


def translate_two_via_cli(url, tmp_path, trigger):
    """Run translate on two WinoMT sentences through the stub server at url,
    the second one carrying trigger: (exit code, [(status, reason)] per record)."""
    sentences, config = tmp_path / "sentences.jsonl", tmp_path / "backends.json"
    out = tmp_path / "translations.jsonl"
    first, second = build_winomt_corpus(4)[:2]
    write_sentences(sentences, [first, replace(second, text=f"{second.text} {trigger}")])
    config.write_text(json.dumps({"backends": [{
        "name": "mt", "kind": "http", "endpoint": url,
        "request_template": {"body": {"q": "{text}"},
                             "response_path": "data.translations.0.translatedText"},
    }]}), encoding="utf-8")
    code = run(["translate", "--sentences", str(sentences), "--config", str(config),
                "--backend", "mt", "--out", str(out)])
    return code, [(r.status, r.reason) for r in read_translations(out)]


class TestHttpBackend:
    def test_success_path_extraction(self, http_server):
        url, state = http_server
        sources = [plain_source(i, f"वाक्य {i}") for i in range(5)]
        records = []
        translate_batch(sources, http_config(url), records.extend)
        assert all(r.status is TranslationStatus.OK for r in records)
        assert all(r.target_text.startswith("He works.") for r in records)
        assert [r.source_id for r in records] == [s.id for s in sources]

    def test_auth_header_from_env(self, http_server, monkeypatch):
        url, state = http_server
        state.require_token = "sekrit"
        monkeypatch.setenv("TEST_MT_KEY", "sekrit")
        config = http_config(url, auth_env="TEST_MT_KEY",
                             headers={"Authorization": "Bearer {credential}"})
        records = []
        translate_batch([plain_source(0, "वाक्य")], config, records.extend)
        assert records[0].status is TranslationStatus.OK

    def test_wrong_credential_is_permanent_failure(self, http_server, monkeypatch):
        url, state = http_server
        state.require_token = "sekrit"
        monkeypatch.setenv("TEST_MT_KEY", "wrong")
        config = http_config(url, auth_env="TEST_MT_KEY",
                             headers={"Authorization": "Bearer {credential}"})
        records = []
        translate_batch([plain_source(0, "वाक्य")], config, records.extend)
        assert records[0].status is TranslationStatus.FAILED
        assert records[0].reason == "HTTP 401"
        assert state.total_requests == 1  # 4xx is not retried

    def test_missing_credential_aborts_before_requests(self, http_server, monkeypatch):
        url, state = http_server
        monkeypatch.delenv("TEST_MT_KEY", raising=False)
        config = http_config(url, auth_env="TEST_MT_KEY")
        with pytest.raises(BackendError, match="TEST_MT_KEY"):
            translate_batch([plain_source(0, "वाक्य")], config, lambda batch: None)
        assert state.total_requests == 0

    def test_permanent_404(self, http_server):
        url, state = http_server
        records = []
        translate_batch([plain_source(0, "वाक्य NOTFOUND")], http_config(url), records.extend)
        assert records[0].status is TranslationStatus.FAILED
        assert records[0].reason == "HTTP 404"
        assert state.total_requests == 1

    def test_transient_500_retried_to_success(self, http_server):
        url, state = http_server
        records = []
        translate_batch([plain_source(0, "वाक्य FLAKY")], http_config(url), records.extend)
        assert records[0].status is TranslationStatus.OK
        assert state.total_requests == 2

    def test_exhausted_retries_fail_with_attempt_count(self, http_server):
        url, state = http_server
        config = http_config(url, retry=RetryPolicy(max_attempts=3, backoff_base_ms=1))
        records = []
        translate_batch([plain_source(0, "वाक्य FAIL500")], config, records.extend)
        assert records[0].status is TranslationStatus.FAILED
        assert "after 3 attempts" in records[0].reason
        assert state.total_requests == 3

    def test_no_retry_storm(self, http_server):
        url, state = http_server
        sources = [plain_source(i, f"वाक्य {i} FAIL500" if i % 2 else f"वाक्य {i}")
                   for i in range(10)]
        config = http_config(url, retry=RetryPolicy(max_attempts=2, backoff_base_ms=1))
        translate_batch(sources, config, lambda batch: None)
        assert state.total_requests <= len(sources) * config.retry.max_attempts

    def test_partial_failures_never_dropped(self, http_server):
        url, _ = http_server
        sources = [plain_source(0, "वाक्य"), plain_source(1, "वाक्य NOTFOUND"),
                   plain_source(2, "वाक्य")]
        records = []
        translate_batch(sources, http_config(url), records.extend)
        assert [r.status for r in records] == [
            TranslationStatus.OK, TranslationStatus.FAILED, TranslationStatus.OK,
        ]

    def test_bad_response_shape_fails(self, http_server):
        url, _ = http_server
        records = []
        translate_batch([plain_source(0, "वाक्य BADSHAPE")], http_config(url), records.extend)
        assert records[0].status is TranslationStatus.FAILED
        assert "did not match path" in records[0].reason

    def test_a_response_nested_too_deeply_makes_translate_exit_3(self, http_server, tmp_path):
        assert translate_two_via_cli(http_server[0], tmp_path, "NESTED") == (EXIT_PARTIAL, [
            (TranslationStatus.OK, None),
            (TranslationStatus.FAILED,
             "response did not match path 'data.translations.0.translatedText'")])

    def test_empty_translation_fails(self, http_server):
        url, _ = http_server
        records = []
        translate_batch([plain_source(0, "वाक्य EMPTY")], http_config(url), records.extend)
        assert records[0].status is TranslationStatus.FAILED
        assert records[0].reason == "empty translation"

    def test_concurrency_bounded_and_order_kept(self, http_server):
        url, state = http_server
        sources = [plain_source(i, f"वाक्य {i}") for i in range(30)]
        config = http_config(url, max_concurrency=4, batch_size=10)
        records = []
        translate_batch(sources, config, records.extend)
        assert [r.source_id for r in records] == [s.id for s in sources]
        assert state.max_in_flight <= 4

    def test_a_slow_item_holds_up_no_request_behind_it(self, http_server):
        """While one worker waits on a slow item, the other goes on past the
        end of its batch: by the time the first batch is handed over, all
        but the last source of the second batch have been requested."""
        url, state = http_server
        sources = [plain_source(i, "वाक्य SLOW" if i == 3 else f"वाक्य {i}") for i in range(8)]
        requested = []
        translate_batch(sources, http_config(url, max_concurrency=2, batch_size=4),
                        lambda batch: requested.append(state.total_requests))
        assert requested[0] >= 7
        assert requested[1] == 8

    @pytest.mark.parametrize("backend, batch_size", [("mock", 4), ("http", 1), ("http", 4)])
    def test_at_most_a_batch_of_sources_is_read_ahead(self, request, backend, batch_size):
        """At every batch handed over, at most batch_size sources have been
        read beyond the records handed over so far, and the records come in
        input order: no source is read long before its record is kept."""
        sources = [plain_source(i, f"वाक्य {i}") for i in range(30)]
        if backend == "mock":
            config = mock_config(MockSpec("always_male"), batch_size=batch_size)
        else:
            url, _ = request.getfixturevalue("http_server")
            config = http_config(url, max_concurrency=2, batch_size=batch_size)
        read, handed = 0, []

        def reading():
            nonlocal read
            for source in sources:
                read += 1
                yield source

        def on_batch(batch):
            handed.extend(r.source_id for r in batch)
            assert read - len(handed) <= batch_size

        assert translate_batch(reading(), config, on_batch) == 0
        assert handed == [s.id for s in sources]

    def test_an_error_in_on_batch_ends_the_requests_at_once(self, http_server):
        """An error raised by on_batch ends translate_batch at once: the
        requests in flight are cut off, not waited for, and no source beyond
        the window is requested."""
        url, state = http_server
        sources = [plain_source(i, f"वाक्य {i}" if i < 4 else f"वाक्य {i} SLOW")
                   for i in range(40)]

        def on_batch(batch):
            raise OSError("disk full")

        start = time.monotonic()
        with pytest.raises(OSError, match="disk full"):
            translate_batch(sources, http_config(url, max_concurrency=2, batch_size=4), on_batch)
        assert time.monotonic() - start < 0.3  # a SLOW request takes 0.5 s
        assert state.total_requests <= 7

    def test_connection_error_is_transient_failure(self):
        config = http_config("http://127.0.0.1:9/translate",
                             retry=RetryPolicy(max_attempts=2, backoff_base_ms=1),
                             timeout_s=0.5)
        records = []
        translate_batch([plain_source(0, "वाक्य")], config, records.extend)
        assert records[0].status is TranslationStatus.FAILED
        assert "transport error" in records[0].reason


def translate_with_fake_sleep(config, sources):
    """Translate one by one through a translator whose backoff only records."""
    sleeps = []
    translator = _HttpTranslator(config, sleep=sleeps.append)
    try:
        return [translator.translate(s) for s in sources], sleeps
    finally:
        translator.client.close()


class TestHttpRetryPolicy:
    def test_429_waits_for_retry_after(self, http_server):
        url, state = http_server
        records, sleeps = translate_with_fake_sleep(http_config(url),
                                                    [plain_source(0, "वाक्य THROTTLE")])
        assert records[0].status is TranslationStatus.OK
        assert state.total_requests == 2
        assert sleeps == [2.0]  # Retry-After outweighs the 1 ms backoff

    def test_429_on_every_attempt_fails_after_the_attempts(self, http_server):
        url, state = http_server
        records, sleeps = translate_with_fake_sleep(http_config(url),
                                                    [plain_source(0, "वाक्य RATELIMITED")])
        assert records[0].status is TranslationStatus.FAILED
        assert records[0].reason == "HTTP 429 after 3 attempts"
        assert state.total_requests == 3
        assert sleeps == pytest.approx([0.001, 0.002])  # no Retry-After: the backoff alone

    @pytest.mark.parametrize("max_attempts, backoff_base_ms", [
        (20, 250), (2, 10 ** 300), (1100, 1),
    ])
    def test_every_backoff_wait_is_capped(self, http_server, max_attempts, backoff_base_ms):
        """The backoff doubles per attempt up to MAX_WAIT_S and stays there,
        whatever the base and however many attempts: no wait is longer and no
        attempt number overflows."""
        url, state = http_server
        config = http_config(url, retry=RetryPolicy(max_attempts=max_attempts,
                                                    backoff_base_ms=backoff_base_ms))
        records, sleeps = translate_with_fake_sleep(config, [plain_source(0, "वाक्य RATELIMITED")])
        assert records[0].reason == f"HTTP 429 after {max_attempts} attempts"
        assert state.total_requests == max_attempts and len(sleeps) == max_attempts - 1
        assert max(sleeps) <= MAX_WAIT_S
        doubling = [backoff_base_ms * 2 ** k / 1000 for k in range(len(sleeps))
                    if backoff_base_ms * 2 ** k < MAX_WAIT_S * 1000]
        assert sleeps == pytest.approx(doubling + [MAX_WAIT_S] * (len(sleeps) - len(doubling)))

    @pytest.mark.parametrize("value", ["601", "86400", "100000000000000000000"])
    def test_a_retry_after_over_the_limit_fails_at_once(self, http_server, value):
        url, state = http_server
        records, sleeps = translate_with_fake_sleep(http_config(url),
                                                    [plain_source(0, f"वाक्य WAIT={value}")])
        assert records[0].status is TranslationStatus.FAILED
        assert records[0].reason == f"HTTP 429: Retry-After {value} s exceeds the 600 s wait limit"
        assert state.total_requests == 1 and sleeps == []

    def test_a_retry_after_at_the_limit_is_waited_for(self, http_server):
        url, state = http_server
        records, sleeps = translate_with_fake_sleep(http_config(url),
                                                    [plain_source(0, "वाक्य WAIT=600")])
        assert records[0].status is TranslationStatus.OK
        assert state.total_requests == 2 and sleeps == [MAX_WAIT_S]

    def test_a_retry_after_over_the_limit_makes_translate_exit_3(self, http_server, tmp_path):
        trigger = "WAIT=100000000000000000000"
        assert translate_two_via_cli(http_server[0], tmp_path, trigger) == (EXIT_PARTIAL, [
            (TranslationStatus.OK, None),
            (TranslationStatus.FAILED,
             "HTTP 429: Retry-After 100000000000000000000 s exceeds the 600 s wait limit")])

    def test_408_is_retried(self, http_server):
        url, state = http_server
        records, _ = translate_with_fake_sleep(http_config(url),
                                               [plain_source(0, "वाक्य TIMEOUT408")])
        assert records[0].status is TranslationStatus.OK
        assert state.total_requests == 2

    def test_redirect_is_permanent(self, http_server):
        url, state = http_server
        records, sleeps = translate_with_fake_sleep(http_config(url),
                                                    [plain_source(0, "वाक्य REDIRECT")])
        assert records[0].reason == "HTTP 301"
        assert state.total_requests == 1 and sleeps == []

    @pytest.mark.parametrize("value, seconds", [
        ("2", 2.0), (" 7 ", 7.0), ("0", 0.0), (None, 0.0), ("", 0.0), ("-1", 0.0),
        ("1.5", 0.0), ("soon", 0.0), ("Wed, 21 Oct 2015 07:28:00 GMT", 0.0), ("²", 0.0),
    ])
    def test_retry_after_seconds(self, value, seconds):
        assert _retry_after_s(value) == seconds


class TestHttpTransport:
    def test_request_bytes_and_default_headers(self, http_server):
        url, state = http_server
        records = []
        translate_batch([plain_source(0, "वाक्य")], http_config(url), records.extend)
        assert records[0].status is TranslationStatus.OK
        body = {"q": "वाक्य", "source": "hi", "target": "en"}
        assert state.last_body == json.dumps(body, allow_nan=False).encode("utf-8")
        assert state.last_headers.get_all("Content-Type") == ["application/json"]
        assert state.last_headers["User-Agent"] == f"mtgender/{mtgender.__version__}"

    def test_template_header_replaces_default_in_any_case(self, http_server):
        url, state = http_server
        config = http_config(url, headers={"content-TYPE": "application/json; charset=utf-8"})
        translate_batch([plain_source(0, "वाक्य")], config, lambda batch: None)
        assert state.last_headers.get_all("Content-Type") == ["application/json; charset=utf-8"]

    @pytest.mark.parametrize("concurrency, count", [(2, 30), (8, 200)])
    def test_one_keep_alive_connection_per_worker(self, http11_server, concurrency, count):
        url, state = http11_server
        sources = [plain_source(i, f"वाक्य {i}") for i in range(count)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the workers as often as possible
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", ResourceWarning)
                records = []
                translate_batch(sources, http_config(url, max_concurrency=concurrency,
                                                               batch_size=10), records.extend)
                gc.collect()
        finally:
            sys.setswitchinterval(interval)
        # a socket left for the garbage collector to close warns
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
        assert [r.status for r in records] == [TranslationStatus.OK] * count
        assert 1 <= state.connections <= concurrency
        assert state.total_requests == count
        deadline = time.monotonic() + 5
        while state.open_connections and time.monotonic() < deadline:
            time.sleep(0.01)
        assert state.open_connections == 0  # translate_batch closed what it opened

    def test_connection_closed_by_server_is_replaced_without_an_attempt(self, http11_server):
        url, state = http11_server
        state.close_after_reply = True  # but no Connection: close header
        sources = [plain_source(i, f"वाक्य {i}") for i in range(5)]
        config = http_config(url, retry=RetryPolicy(max_attempts=1, backoff_base_ms=1))
        records = []
        translate_batch(sources, config, records.extend)
        assert [r.status for r in records] == [TranslationStatus.OK] * 5
        assert state.total_requests == 5 and state.connections == 5

    def test_truncated_response_is_a_transient_transport_error(self, http11_server):
        url, state = http11_server
        config = http_config(url, retry=RetryPolicy(max_attempts=1, backoff_base_ms=1))
        records = []
        translate_batch([plain_source(0, "वाक्य TRUNCATED")], config, records.extend)
        assert records[0].reason == "transport error: IncompleteRead after 1 attempts"
        records = []
        translate_batch([plain_source(1, "वाक्य 1 TRUNCATED")], http_config(url), records.extend)
        assert records[0].status is TranslationStatus.OK  # second attempt, new connection
        assert state.total_requests == 3 and state.connections == 3

    def test_timeout_is_a_transport_error(self, http_server):
        url, _ = http_server
        config = http_config(url, retry=RetryPolicy(max_attempts=1, backoff_base_ms=1),
                             timeout_s=0.1)
        records = []
        translate_batch([plain_source(0, "वाक्य SLOW")], config, records.extend)
        assert records[0].reason == "transport error: TimeoutError after 1 attempts"

    @pytest.mark.parametrize("endpoint, complaint", [
        ("ftp://127.0.0.1/translate", "endpoint must be an http:// or https:// URL"),
        ("127.0.0.1:8080/translate", "endpoint must be an http:// or https:// URL"),
        ("http://127.0.0.1:99999/translate", "out of range"),
    ])
    def test_unusable_endpoint_aborts_before_requests(self, endpoint, complaint):
        with pytest.raises(BackendError, match=complaint):
            translate_batch([plain_source(0, "वाक्य")], http_config(endpoint), lambda batch: None)

    def test_body_template_that_is_not_json_aborts(self, http_server):
        url, state = http_server
        with pytest.raises(BackendError, match="backend 'nan'"):
            config = BackendConfig(name="nan", kind=BackendKind.HTTP, endpoint=url,
                                   request_template={"body": {"q": "{text}", "t": float("nan")},
                                                     "response_path": "x"})
            translate_batch([plain_source(0, "वाक्य")], config, lambda batch: None)
        assert state.total_requests == 0

    def test_close_ends_a_translation_blocked_on_a_kept_alive_connection(self, http11_server):
        """Closed from another thread while the server holds its request, a
        translation returns at once, and neither sends that request again on
        a new connection nor makes another attempt."""
        url, state = http11_server
        state.hold_at = 2  # on the connection the first request opened
        translator = _HttpTranslator(http_config(url, timeout_s=30.0))
        records = []
        thread = threading.Thread(target=lambda: records.extend(
            translator.translate(plain_source(i, f"वाक्य {i}")) for i in range(2)))
        thread.start()
        try:
            assert state.held.wait(timeout=10), "the request was never held"
            translator.close()
            thread.join(timeout=2)
            assert not thread.is_alive(), "the translation is still blocked"
        finally:
            state.release.set()
            thread.join()
        assert [(r.status, r.reason) for r in records] == [
            (TranslationStatus.OK, None), (TranslationStatus.FAILED, "interrupted")]
        assert (state.total_requests, state.connections) == (2, 1)


_PROXY_VARS = ("http_proxy", "HTTP_PROXY", "https_proxy", "HTTPS_PROXY", "no_proxy", "NO_PROXY")


class TestHttpProxy:
    @pytest.fixture(autouse=True)
    def no_proxy_settings(self, monkeypatch):
        for name in _PROXY_VARS:
            monkeypatch.delenv(name, raising=False)

    def test_http_proxy_gets_absolute_form(self, http_server, monkeypatch):
        url, state = http_server
        proxy = url.rsplit("/", 1)[0].replace("http://", "http://user:p%40ss@")
        monkeypatch.setenv("HTTP_PROXY", proxy)
        records = []
        translate_batch([plain_source(0, "वाक्य")],
                                  http_config("http://mt.invalid/translate"), records.extend)
        assert records[0].status is TranslationStatus.OK
        assert state.paths == ["http://mt.invalid/translate"]
        assert state.last_headers["Host"] == "mt.invalid"
        assert state.last_headers["Proxy-Authorization"] == "Basic dXNlcjpwQHNz"  # user:p@ss

    def test_no_proxy_host_goes_direct(self, http_server, monkeypatch):
        url, state = http_server
        monkeypatch.setenv("HTTP_PROXY", "http://127.0.0.1:9")  # nothing listens there
        monkeypatch.setenv("NO_PROXY", "127.0.0.1")
        records = []
        translate_batch([plain_source(0, "वाक्य")], http_config(url), records.extend)
        assert records[0].status is TranslationStatus.OK
        assert state.paths == ["/translate"]

    def test_https_goes_through_a_tunnel(self, http_server, monkeypatch):
        url, state = http_server
        monkeypatch.setenv("HTTPS_PROXY", url.rsplit("/", 1)[0])
        config = http_config("https://mt.invalid/translate",
                             retry=RetryPolicy(max_attempts=1, backoff_base_ms=1))
        records = []
        translate_batch([plain_source(0, "वाक्य")], config, records.extend)
        # the test server refuses the tunnel, but the CONNECT reached it
        assert records[0].reason == "transport error: OSError after 1 attempts"
        assert state.paths == ["mt.invalid:443"]

    def test_https_to_a_plain_http_server_fails_the_handshake(self, http_server):
        url, state = http_server
        config = http_config(url.replace("http://", "https://"),
                             retry=RetryPolicy(max_attempts=1, backoff_base_ms=1))
        records = []
        translate_batch([plain_source(0, "वाक्य")], config, records.extend)
        assert records[0].reason.startswith("transport error: SSL")
        assert state.total_requests == 0


def test_translate_runs_without_requests(http_server, tmp_path):
    """The http backend needs nothing outside the standard library."""
    url, state = http_server
    sentences = tmp_path / "sentences.jsonl"
    write_sentences(sentences, build_winomt_corpus(8))
    config = tmp_path / "backends.json"
    config.write_text(json.dumps({"backends": [{
        "name": "mt", "kind": "http", "endpoint": url,
        "request_template": {"body": {"q": "{text}"},
                             "response_path": "data.translations.0.translatedText"},
    }]}), encoding="utf-8")
    out = tmp_path / "translations.jsonl"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items() if k not in _PROXY_VARS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = ("import sys; sys.modules['requests'] = None; from mtgender.cli import run; "
             "sys.exit(run(sys.argv[1:]))")
    result = subprocess.run(
        [sys.executable, "-c", probe, "translate", "--sentences", str(sentences), "--config",
         str(config), "--backend", "mt", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert [r.status for r in read_translations(out)] == [TranslationStatus.OK] * 8
    assert state.total_requests == 8


class TestRateLimiter:
    def test_spacing_with_fake_clock(self):
        now = {"t": 0.0}
        sleeps = []

        def clock():
            return now["t"]

        def sleep(duration):
            sleeps.append(duration)
            now["t"] += duration

        limiter = _RateLimiter(10.0, clock=clock, sleep=sleep)  # 0.1 s interval
        for _ in range(4):
            limiter.wait()
        # first call goes straight through, the rest keep the 0.1 s spacing
        assert sleeps == pytest.approx([0.1, 0.1, 0.1])

    def test_disabled_without_rate(self):
        limiter = _RateLimiter(None, clock=lambda: 0.0,
                               sleep=lambda _: pytest.fail("should not sleep"))
        limiter.wait()
        limiter.wait()
