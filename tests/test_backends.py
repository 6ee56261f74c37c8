import json
from collections import Counter

import pytest

from mtgender.backends import (
    BackendConfig,
    BackendError,
    BackendKind,
    MockSpec,
    RetryPolicy,
    TranslationRecord,
    TranslationStatus,
    _RateLimiter,
    backend_config_from_dict,
    load_backend_config,
    load_replay_map,
    mock_translate,
    read_translations,
    translate_batch,
    write_translations,
)
from mtgender.classify import classify_gender
from mtgender.corpus import GenderLabel, SourceSentence, Suite
from mtgender.fileio import from_record, to_record
from mtgender.templates import expand_otsc

from conftest import FEMALE_OCC, MALE_OCC, build_winomt_corpus


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


def plain_source(i, text):
    return SourceSentence(id=f"s{i:03d}", text=text, suite=Suite.WINOMT, set_id="main",
                          gold_gender=GenderLabel.MALE)


# --------------------------------------------------------------------------
# Mocks


class TestMockTranslate:
    def test_always_male_pinned_rendering(self):
        sentences = expand_otsc(["डॉक्टर"])
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
        from dataclasses import replace

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
        records = translate_batch(corpus, mock_config(MockSpec("echo_gold"), batch_size=7))
        assert [r.source_id for r in records] == [s.id for s in corpus]
        assert all(r.status is TranslationStatus.OK for r in records)

    def test_source_id_multiset_preserved(self):
        corpus = build_winomt_corpus(24)
        records = translate_batch(corpus, mock_config(MockSpec("always_male"), batch_size=5))
        assert Counter(r.source_id for r in records) == Counter(s.id for s in corpus)

    def test_empty_sources_rejected(self):
        with pytest.raises(BackendError, match="no sources"):
            translate_batch([], mock_config(MockSpec("always_male")))

    def test_on_batch_sees_everything_in_order(self):
        corpus = build_winomt_corpus(20)
        flushed = []
        translate_batch(corpus, mock_config(MockSpec("echo_gold"), batch_size=6),
                        on_batch=flushed.extend)
        assert [r.source_id for r in flushed] == [s.id for s in corpus]

    def test_file_replay_full_coverage(self, tmp_path, occupations_1071):
        from mtgender.corpus import load_occupations

        corpus = expand_otsc(load_occupations(occupations_1071))
        assert len(corpus) == 4284
        replay_path = tmp_path / "replay.jsonl"
        source_records = translate_batch(corpus, mock_config(MockSpec("echo_gold")))
        write_translations(replay_path, source_records)
        config = BackendConfig(name="replay", kind=BackendKind.FILE_REPLAY,
                               replay_path=str(replay_path))
        records = translate_batch(corpus, config)
        assert len(records) == 4284
        assert all(r.status is TranslationStatus.OK for r in records)
        assert [r.target_text for r in records] == [r.target_text for r in source_records]

    def test_file_replay_missing_ids_fail_without_drop(self, tmp_path):
        corpus = build_winomt_corpus(12)
        replay_path = tmp_path / "replay.jsonl"
        kept = translate_batch(corpus[:9], mock_config(MockSpec("echo_gold")))
        write_translations(replay_path, kept)
        config = BackendConfig(name="replay", kind=BackendKind.FILE_REPLAY,
                               replay_path=str(replay_path))
        records = translate_batch(corpus, config)
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
        replay = load_replay_map(replay_path)
        assert replay == {"a": "He is here."}

    def test_missing_replay_file_aborts(self):
        config = BackendConfig(name="replay", kind=BackendKind.FILE_REPLAY,
                               replay_path="/nonexistent/replay.jsonl")
        with pytest.raises(BackendError, match="no such replay file"):
            translate_batch(build_winomt_corpus(4), config)


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
        }, base_dir=tmp_path)
        assert MALE_OCC in config.mock.lists.male_stereotyped


class TestTranslationRecordSerialization:
    def test_round_trip(self):
        records = [
            TranslationRecord.ok("a", "He is here.", "x"),
            TranslationRecord.failed("b", "x", "HTTP 500"),
        ]
        assert [from_record(TranslationRecord, to_record(r), BackendError, "test")
                for r in records] == records

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


class TestHttpBackend:
    def test_success_path_extraction(self, http_server):
        url, state = http_server
        sources = [plain_source(i, f"वाक्य {i}") for i in range(5)]
        records = translate_batch(sources, http_config(url))
        assert all(r.status is TranslationStatus.OK for r in records)
        assert all(r.target_text.startswith("He works.") for r in records)
        assert [r.source_id for r in records] == [s.id for s in sources]

    def test_auth_header_from_env(self, http_server, monkeypatch):
        url, state = http_server
        state.require_token = "sekrit"
        monkeypatch.setenv("TEST_MT_KEY", "sekrit")
        config = http_config(url, auth_env="TEST_MT_KEY",
                             headers={"Authorization": "Bearer {credential}"})
        records = translate_batch([plain_source(0, "वाक्य")], config)
        assert records[0].status is TranslationStatus.OK

    def test_wrong_credential_is_permanent_failure(self, http_server, monkeypatch):
        url, state = http_server
        state.require_token = "sekrit"
        monkeypatch.setenv("TEST_MT_KEY", "wrong")
        config = http_config(url, auth_env="TEST_MT_KEY",
                             headers={"Authorization": "Bearer {credential}"})
        records = translate_batch([plain_source(0, "वाक्य")], config)
        assert records[0].status is TranslationStatus.FAILED
        assert records[0].reason == "HTTP 401"
        assert state.total_requests == 1  # 4xx is not retried

    def test_missing_credential_aborts_before_requests(self, http_server, monkeypatch):
        url, state = http_server
        monkeypatch.delenv("TEST_MT_KEY", raising=False)
        config = http_config(url, auth_env="TEST_MT_KEY")
        with pytest.raises(BackendError, match="TEST_MT_KEY"):
            translate_batch([plain_source(0, "वाक्य")], config)
        assert state.total_requests == 0

    def test_permanent_404(self, http_server):
        url, state = http_server
        records = translate_batch([plain_source(0, "वाक्य NOTFOUND")], http_config(url))
        assert records[0].status is TranslationStatus.FAILED
        assert records[0].reason == "HTTP 404"
        assert state.total_requests == 1

    def test_transient_500_retried_to_success(self, http_server):
        url, state = http_server
        records = translate_batch([plain_source(0, "वाक्य FLAKY")], http_config(url))
        assert records[0].status is TranslationStatus.OK
        assert state.total_requests == 2

    def test_exhausted_retries_fail_with_attempt_count(self, http_server):
        url, state = http_server
        config = http_config(url, retry=RetryPolicy(max_attempts=3, backoff_base_ms=1))
        records = translate_batch([plain_source(0, "वाक्य FAIL500")], config)
        assert records[0].status is TranslationStatus.FAILED
        assert "after 3 attempts" in records[0].reason
        assert state.total_requests == 3

    def test_no_retry_storm(self, http_server):
        url, state = http_server
        sources = [plain_source(i, f"वाक्य {i} FAIL500" if i % 2 else f"वाक्य {i}")
                   for i in range(10)]
        config = http_config(url, retry=RetryPolicy(max_attempts=2, backoff_base_ms=1))
        translate_batch(sources, config)
        assert state.total_requests <= len(sources) * config.retry.max_attempts

    def test_partial_failures_never_dropped(self, http_server):
        url, _ = http_server
        sources = [plain_source(0, "वाक्य"), plain_source(1, "वाक्य NOTFOUND"),
                   plain_source(2, "वाक्य")]
        records = translate_batch(sources, http_config(url))
        assert [r.status for r in records] == [
            TranslationStatus.OK, TranslationStatus.FAILED, TranslationStatus.OK,
        ]

    def test_bad_response_shape_fails(self, http_server):
        url, _ = http_server
        records = translate_batch([plain_source(0, "वाक्य BADSHAPE")], http_config(url))
        assert records[0].status is TranslationStatus.FAILED
        assert "did not match path" in records[0].reason

    def test_empty_translation_fails(self, http_server):
        url, _ = http_server
        records = translate_batch([plain_source(0, "वाक्य EMPTY")], http_config(url))
        assert records[0].status is TranslationStatus.FAILED
        assert records[0].reason == "empty translation"

    def test_concurrency_bounded_and_order_kept(self, http_server):
        url, state = http_server
        sources = [plain_source(i, f"वाक्य {i}") for i in range(30)]
        config = http_config(url, max_concurrency=4, batch_size=10)
        records = translate_batch(sources, config)
        assert [r.source_id for r in records] == [s.id for s in sources]
        assert state.max_in_flight <= 4

    def test_connection_error_is_transient_failure(self):
        config = http_config("http://127.0.0.1:9/translate",
                             retry=RetryPolicy(max_attempts=2, backoff_base_ms=1),
                             timeout_s=0.5)
        records = translate_batch([plain_source(0, "वाक्य")], config)
        assert records[0].status is TranslationStatus.FAILED
        assert "transport error" in records[0].reason


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
