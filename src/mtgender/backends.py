"""Translation backends behind one interface: HTTP services, replay files, mocks.

The HTTP backend is vendor-agnostic: a request template describes how the
source text is embedded in the request body and where the translation sits in
the response. Credentials come from environment variables only. Deterministic
mock translators cover testing and metric calibration; a replay backend
re-serves previously obtained translations so runs are reproducible offline.
"""

from __future__ import annotations

import contextlib
import enum
import json
import logging
import os
import random
import threading
import time
import urllib.parse
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from .corpus import GenderLabel, SourceSentence, StereotypeLists, Stereotype, assign_stereotype
from .fileio import (
    decode_document, file_errors, line_encoder, load_json, parse_json, read_jsonl,
    record_decoder,
)
from .manifest import tool_version

logger = logging.getLogger(__name__)


class BackendError(ValueError):
    """Configuration or usage error that aborts a run before any request."""


class RecordError(BackendError):
    """A source record that a mock cannot translate; the caller names its file."""


class TranslationStatus(enum.Enum):
    OK = "ok"
    FAILED = "failed"


@dataclass(frozen=True)
class TranslationRecord:
    source_id: str
    target_text: str = ""
    backend: str = "unknown"
    status: TranslationStatus = TranslationStatus.OK
    reason: str | None = None

    @classmethod
    def ok(cls, source_id: str, target_text: str, backend: str) -> "TranslationRecord":
        if not target_text:
            return cls.failed(source_id, backend, "empty translation")
        return cls(source_id, target_text, backend, TranslationStatus.OK)

    @classmethod
    def failed(cls, source_id: str, backend: str, reason: str) -> "TranslationRecord":
        return cls(source_id, "", backend, TranslationStatus.FAILED, reason)


def journal_offset(path: str | Path) -> int:
    """Where the records next appended to a translate run's journal at path
    start: its size, 0 when there is none. A last line that a crash left torn
    is ended first, so that the records start on lines of their own and a
    lenient read skips only the torn one."""
    if not os.path.exists(path):
        return 0
    with open(path, "r+b") as fh:
        fh.seek(max(fh.seek(0, os.SEEK_END) - 1, 0))
        if fh.read(1) not in (b"", b"\n"):
            fh.write(b"\n")
        return fh.tell()


def append_translations(path: str | Path, records: Iterable[TranslationRecord]) -> None:
    """Append records to a translations file, which is created if need be: a
    translate run's journal, one finished batch at a time, after journal_offset."""
    with open(path, "ab") as fh:
        fh.write("".join(map(line_encoder(TranslationRecord), records)).encode("utf-8"))


def iter_translations(
    path: str | Path, lenient: bool = False, digest: Any = None
) -> Iterator[TranslationRecord]:
    """Yield the records of a translations file; digest, a hashlib object,
    when given, takes its bytes. An OK record needs a target_text; a failed
    one may lack it. With lenient, a line that is unreadable (such as the last
    line of an interrupted run's journal, torn mid-write, perhaps inside a
    character) or invalid is logged and skipped instead of aborting the read."""
    decode = record_decoder(TranslationRecord, BackendError)
    for lineno, record in read_jsonl(path, digest, lenient):
        try:
            translation = decode(record, path, lineno)
            if not translation.target_text and translation.status is TranslationStatus.OK:
                raise BackendError(f"{path}: line {lineno}: record {translation.source_id!r}: "
                                   "missing field 'target_text'")
        except BackendError as exc:
            if not lenient:
                raise
            logger.warning("%s; line skipped", exc)
            continue
        yield translation


def read_translations(
    path: str | Path, lenient: bool = False, digest: Any = None
) -> list[TranslationRecord]:
    """The records of a translations file, as iter_translations yields them."""
    return list(iter_translations(path, lenient, digest))


# --------------------------------------------------------------------------
# Mock translators


# the kinds that render the same gender whatever the source
_FIXED_GENDERS = {"always_male": GenderLabel.MALE, "always_female": GenderLabel.FEMALE,
                  "neutralizing": GenderLabel.NEUTRAL}
MOCK_KINDS = (*_FIXED_GENDERS, "echo_gold", "coin_flip", "stereotype_follower")


@dataclass(frozen=True)
class MockSpec:
    """Deterministic synthetic translator. coin_flip draws a gender per item
    from a stream keyed on (seed, source id), so outputs are reproducible and
    independent of batch order."""

    kind: str
    seed: int = 0
    p_male: float = 0.5
    lists: StereotypeLists | None = None

    def __post_init__(self) -> None:
        if self.kind not in MOCK_KINDS:
            raise BackendError(f"unknown mock kind {self.kind!r}")
        if self.kind == "coin_flip" and not 0.0 <= self.p_male <= 1.0:
            raise BackendError("p_male must be within [0, 1]")
        if self.kind == "stereotype_follower" and self.lists is None:
            raise BackendError("stereotype_follower requires stereotype lists")


# per gender: the object pronoun, and the clause that ends a rendering
# without an occupation; each carries exactly the pronouns of its gender
_RENDERINGS = {
    GenderLabel.MALE: ("him", "he is a good friend"),
    GenderLabel.FEMALE: ("her", "she is a good friend"),
    GenderLabel.NEUTRAL: ("my friend", "we meet often"),
}


def mock_translate(source: SourceSentence, spec: MockSpec) -> str:
    """A fixed English surface form carrying the pronouns of the gender that
    spec's kind picks for source."""
    if spec.kind == "echo_gold":
        if source.gold_gender is None:
            raise RecordError(f"record {source.id!r}: echo_gold needs a gold gender")
        gender = source.gold_gender
    elif spec.kind == "coin_flip":
        draw = random.Random(f"{spec.seed}:{source.id}").random()
        gender = GenderLabel.MALE if draw < spec.p_male else GenderLabel.FEMALE
    elif spec.kind == "stereotype_follower":
        if source.occupation is None:
            raise RecordError(f"record {source.id!r}: stereotype_follower needs an occupation")
        assert spec.lists is not None
        leaning = assign_stereotype(source.occupation, GenderLabel.MALE, spec.lists)
        # Pro for a male gold means the occupation is male-listed; Unlisted
        # falls back to the masculine default.
        gender = GenderLabel.FEMALE if leaning is Stereotype.ANTI else GenderLabel.MALE
    else:
        gender = _FIXED_GENDERS[spec.kind]
    pronoun, clause = _RENDERINGS[gender]
    if source.occupation:
        clause = f"my friend works as a {source.occupation}"
    return f"I have known {pronoun} for a long time, {clause}."


# --------------------------------------------------------------------------
# Backend configuration

# The longest wait, in seconds, the http backend takes: for a response
# (timeout_s), between requests (1 / rate_limit), for a Retry-After and
# between attempts.
MAX_WAIT_S = 600.0


class BackendKind(enum.Enum):
    HTTP = "http"
    FILE_REPLAY = "file_replay"
    MOCK = "mock"


@dataclass(frozen=True)
class RetryPolicy:
    max_attempts: int = 3
    backoff_base_ms: int = 250

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise BackendError("max_attempts must be >= 1")
        if self.backoff_base_ms < 0:
            raise BackendError("backoff_base_ms must be >= 0")


def _check_header(backend: str, key: str, value: str) -> None:
    """Reject a header name or value holding CR, LF or NUL: HTTP allows none of
    them in a header, and CR or LF would end the header line and start another."""
    if any(c in key or c in value for c in "\r\n\0"):
        raise BackendError(f"backend {backend!r}: header {key!r} holds a CR, LF or NUL character")


@dataclass(frozen=True)
class _RequestTemplateKeys:
    """The request_template keys that are read as more than JSON to send."""

    response_path: str = ""
    headers: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class BackendConfig:
    name: str
    kind: BackendKind
    endpoint: str | None = None
    auth_env: str | None = None
    request_template: Mapping[str, Any] | None = None
    replay_path: str | None = None
    mock: MockSpec | None = None
    batch_size: int = 32
    max_concurrency: int = 1
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    rate_limit: float | None = None
    timeout_s: float = 30.0

    def __post_init__(self) -> None:
        if not self.name:
            raise BackendError("backend entry is missing a name")
        if self.request_template is not None:
            keys = decode_document(self.request_template, _RequestTemplateKeys, BackendError,
                                   "request_template")
            for key, value in keys.headers.items():
                _check_header(self.name, key, str(value))
                if "{credential}" in str(value) and not self.auth_env:
                    raise BackendError(f"backend {self.name!r}: header {key!r} references a "
                                       "credential but auth_env is not configured")
        if self.batch_size < 1:
            raise BackendError("batch_size must be positive")
        if self.max_concurrency < 1:
            raise BackendError("max_concurrency must be positive")
        if self.rate_limit is not None and not self.rate_limit >= 1 / MAX_WAIT_S:
            raise BackendError(f"backend {self.name!r}: rate_limit must be at least one "
                               f"request per {MAX_WAIT_S:g} s, not {self.rate_limit}")
        if not 0 < self.timeout_s <= MAX_WAIT_S:
            raise BackendError(f"backend {self.name!r}: timeout_s must be above 0 and at "
                               f"most {MAX_WAIT_S:g}, not {self.timeout_s}")
        if self.kind is BackendKind.HTTP:
            if not self.endpoint:
                raise BackendError(f"backend {self.name!r}: http kind requires an endpoint")
            if self.request_template is None:
                raise BackendError(f"backend {self.name!r}: http kind requires a request_template")
            if "body" not in self.request_template or "response_path" not in self.request_template:
                raise BackendError(
                    f"backend {self.name!r}: request_template needs 'body' and 'response_path'"
                )
            try:
                url = urllib.parse.urlsplit(self.endpoint)
                if url.scheme not in ("http", "https") or not url.hostname:
                    raise ValueError(
                        f"endpoint must be an http:// or https:// URL, not {self.endpoint!r}")
                url.port  # raises ValueError for a port that is not a number in range
                json.dumps(self.request_template["body"], allow_nan=False)
            except ValueError as exc:
                raise BackendError(f"backend {self.name!r}: {exc}") from None
        elif self.kind is BackendKind.FILE_REPLAY:
            if not self.replay_path:
                raise BackendError(f"backend {self.name!r}: file_replay kind requires replay_path")
        elif self.kind is BackendKind.MOCK:
            if self.mock is None:
                raise BackendError(f"backend {self.name!r}: mock kind requires a mock spec")


def backend_config_from_dict(raw: Mapping[str, Any], path: str | Path) -> BackendConfig:
    """Build a BackendConfig from one entry of the backends config file at
    path; errors name path, and relative replay and stereotype-list paths
    resolve against its directory.

    The entry is decoded by decode_document, but for the mock's spec key and
    list files.
    """

    def resolve(p: str | None) -> str | None:
        return p if p is None else str(Path(path).parent / p)

    with file_errors(path, BackendError):
        mock = raw.get("mock")
        if isinstance(mock, dict):  # anything else is left to the decoder
            if not isinstance(mock.get("spec", ""), str):
                raise BackendError(f"mock.spec must be a string, not {mock['spec']!r}")
            lists, files = None, [mock.get("male_list"), mock.get("female_list")]
            if files != [None, None]:
                if not all(isinstance(f, str) for f in files):
                    raise BackendError(f"backend {raw.get('name')!r}: stereotype mock needs both "
                                       "male_list and female_list, each a file name")
                lists = StereotypeLists.from_files(*map(resolve, files))
            mock = {**mock, "kind": mock.get("spec", ""), "lists": lists}
        config = decode_document({**raw, "mock": mock}, BackendConfig, BackendError)
        return replace(config, replay_path=resolve(config.replay_path))


def find_backend_entry(path: str | Path, name: str) -> dict[str, Any]:
    """Fetch one backend definition (raw dict) by name from a config file."""
    raw = load_json(path, BackendError)
    entries = raw.get("backends") if isinstance(raw, dict) else None
    if not entries or not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise BackendError(f"{path}: config needs a 'backends' list of one or more objects")
    names = Counter(e["name"] for e in entries if isinstance(e.get("name"), str))
    shared = [n for n, copies in names.items() if copies > 1]
    if shared:
        raise BackendError(f"{path}: more than one backend is named {shared[0]!r}")
    for entry in entries:
        if entry.get("name") == name:
            return entry
    known = ", ".join(sorted(str(e.get("name")) for e in entries))
    raise BackendError(f"{path}: no backend named {name!r} (have: {known})")


# --------------------------------------------------------------------------
# Batch translation


class _RateLimiter:
    """Enforces a minimum spacing between request starts, shared across threads."""

    def __init__(
        self,
        rate_per_s: float | None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.interval = 1.0 / rate_per_s if rate_per_s else 0.0
        self._clock = clock
        self._sleep = sleep
        self._lock = threading.Lock()
        self._next_slot = 0.0

    def wait(self) -> None:
        if not self.interval:
            return
        with self._lock:
            now = self._clock()
            delay = max(0.0, self._next_slot - now)
            self._next_slot = max(now, self._next_slot) + self.interval
        if delay:
            self._sleep(delay)


def _substitute_text(node: Any, text: str) -> Any:
    if isinstance(node, str):
        return node.replace("{text}", text)
    if isinstance(node, Mapping):
        return {k: _substitute_text(v, text) for k, v in node.items()}
    if isinstance(node, list):
        return [_substitute_text(v, text) for v in node]
    return node


def _extract_path(payload: Any, path: str) -> Any:
    node = payload
    for segment in path.split("."):
        if isinstance(node, Mapping):
            if segment not in node:
                raise KeyError(segment)
            node = node[segment]
        elif isinstance(node, list):
            node = node[int(segment)]
        else:
            raise KeyError(segment)
    return node


def _retry_after_s(value: str | None) -> float:
    """A Retry-After header in seconds; 0 for none, an HTTP-date or anything
    unparsable, which leaves the wait to the backoff."""
    value = (value or "").strip()
    return float(value) if value.isascii() and value.isdigit() else 0.0


class _HttpTranslator:
    def __init__(self, config: BackendConfig, sleep: Callable[[float], None] = time.sleep) -> None:
        # imported here, not at module level: every other backend and stage
        # runs without loading http.client and ssl
        from .transport import KeepAliveClient

        self.config = config
        assert config.request_template is not None and config.endpoint is not None
        self.template = config.request_template
        self.credential = None
        if config.auth_env:
            self.credential = os.environ.get(config.auth_env)
            if not self.credential:
                raise BackendError(
                    f"backend {config.name!r}: environment variable {config.auth_env!r} "
                    "is not set"
                )
        custom = {}
        for key, value in dict(self.template.get("headers", {})).items():
            # BackendConfig allows {credential} only with auth_env set, so it has a value
            value = str(value).replace("{credential}", self.credential or "")
            _check_header(config.name, key, value)
            custom[key] = value
        # header names are case-insensitive: a template header replaces a default
        overridden = {key.lower() for key in custom}
        defaults = {"Content-Type": "application/json", "User-Agent": f"mtgender/{tool_version()}"}
        headers = {k: v for k, v in defaults.items() if k.lower() not in overridden} | custom
        try:  # the proxy, read from the environment, may be unusable
            self.client = KeepAliveClient(config.endpoint, config.timeout_s, headers)
        except ValueError as exc:
            raise BackendError(f"backend {config.name!r}: {exc}") from None
        self._sleep = sleep
        self.limiter = _RateLimiter(config.rate_limit, sleep=sleep)

    def translate(self, source: SourceSentence) -> TranslationRecord:
        cfg = self.config
        body = json.dumps(_substitute_text(self.template["body"], source.text),
                          allow_nan=False).encode("utf-8")
        reason = "no attempts made"
        retry_after = 0.0
        for attempt in range(1, cfg.retry.max_attempts + 1):
            if attempt > 1:
                # doubling stops at 2 ** 20 ms, past MAX_WAIT_S, so no attempt overflows
                backoff = min(cfg.retry.backoff_base_ms * 2 ** min(attempt - 2, 20),
                              MAX_WAIT_S * 1000) / 1000.0
                self._sleep(max(backoff, retry_after))
            self.limiter.wait()
            try:
                response = self.client.post(body)
            except self.client.ERRORS as exc:
                reason = f"transport error: {exc.__class__.__name__}"
                retry_after = 0.0
                continue  # transient
            status = response.status
            if 200 <= status < 300:
                try:
                    target = _extract_path(parse_json(response.body),
                                           self.template["response_path"])
                except (ValueError, KeyError, IndexError):
                    return TranslationRecord.failed(
                        source.id, cfg.name,
                        f"response did not match path {self.template['response_path']!r}",
                    )
                if not isinstance(target, str):
                    return TranslationRecord.failed(
                        source.id, cfg.name, "extracted translation is not a string"
                    )
                return TranslationRecord.ok(source.id, target, cfg.name)
            reason = f"HTTP {status}"
            # 408 and 429 ask the client to come back later; 5xx is transient
            # too; any other status (a 3xx redirect included) is permanent
            if status < 500 and status not in (408, 429):
                return TranslationRecord.failed(source.id, cfg.name, reason)
            retry_after = _retry_after_s(response.retry_after)
            if retry_after > MAX_WAIT_S:
                return TranslationRecord.failed(
                    source.id, cfg.name, f"{reason}: Retry-After {response.retry_after.strip()} "
                    f"s exceeds the {MAX_WAIT_S:g} s wait limit")
        return TranslationRecord.failed(
            source.id, cfg.name, f"{reason} after {cfg.retry.max_attempts} attempts"
        )


def load_replay_map(path: str | Path) -> dict[str, str]:
    """Read a replay file: either bare {source_id, target_text} lines or a full
    translations file, whose failed lines are ignored."""
    return {record.source_id: record.target_text for record in iter_translations(path)
            if record.status is TranslationStatus.OK}


def translate_batch(
    sources: Sequence[SourceSentence],
    config: BackendConfig,
    on_batch: Callable[[list[TranslationRecord]], None],
) -> int:
    """Translate sources through the configured backend, handing each
    finished batch, in input order, to on_batch, the one place its records
    are kept: a failure becomes a failed record, never dropped. Returns how
    many of the records failed."""
    if not sources:
        raise BackendError("no sources to translate")

    per_item: Callable[[SourceSentence], TranslationRecord]
    translator = None
    if config.kind is BackendKind.MOCK:
        assert config.mock is not None
        spec = config.mock

        def per_item(source: SourceSentence) -> TranslationRecord:
            return TranslationRecord.ok(source.id, mock_translate(source, spec), config.name)

    elif config.kind is BackendKind.FILE_REPLAY:
        assert config.replay_path is not None
        replay = load_replay_map(config.replay_path)

        def per_item(source: SourceSentence) -> TranslationRecord:
            target = replay.get(source.id)
            if target is None:
                return TranslationRecord.failed(source.id, config.name, "missing translation")
            return TranslationRecord.ok(source.id, target, config.name)

    else:
        translator = _HttpTranslator(config)
        per_item = translator.translate

    concurrent = translator is not None and config.max_concurrency > 1
    failed = 0
    try:
        with (ThreadPoolExecutor(config.max_concurrency) if concurrent
              else contextlib.nullcontext()) as pool:
            for start in range(0, len(sources), config.batch_size):
                batch = list((pool.map if pool else map)(
                    per_item, sources[start : start + config.batch_size]))
                failed += sum(r.status is TranslationStatus.FAILED for r in batch)
                on_batch(batch)
    finally:
        if translator is not None:
            translator.client.close()
    return failed
