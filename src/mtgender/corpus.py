"""Canonical data model for Hindi test sentences and loaders for the three suite formats.

Suites:
  * OTSC    - template-generated occupation sentences in four speaker/friend
              gender quadrants (set_id one of FF, FM, MF, MM).
  * WINOMT  - hand-authored coreference challenge records with a gold gender,
              an occupation and a pro/anti stereotype tag.
  * NEUTRAL - gender-neutral sentence sets (set_id normally S1..S7) used for
              the balance-index evaluation.

All pipeline files are line-delimited UTF-8 JSON records (one object per line).
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Iterator

from .fileio import (
    contains_devanagari, file_errors, line_encoder, read_jsonl, read_text, record_decoder,
    write_jsonl,
)

logger = logging.getLogger(__name__)

OTSC_QUADRANTS = ("FF", "FM", "MF", "MM")
NEUTRAL_SET_IDS = ("S1", "S2", "S3", "S4", "S5", "S6", "S7")


class CorpusError(ValueError):
    """Raised when a corpus file violates its schema or an invariant."""


class GenderLabel(enum.Enum):
    MALE = "male"
    FEMALE = "female"
    NEUTRAL = "neutral"
    AMBIGUOUS = "ambiguous"


_INITIALS = {GenderLabel.MALE: "M", GenderLabel.FEMALE: "F"}


#: Gold labels carried by corpus files; Neutral/Ambiguous exist only as
#: classifier outcomes.
GOLD_GENDERS = (GenderLabel.MALE, GenderLabel.FEMALE)


class Suite(enum.Enum):
    OTSC = "otsc"
    WINOMT = "winomt"
    NEUTRAL = "neutral"


class Stereotype(enum.Enum):
    PRO = "pro"
    ANTI = "anti"
    UNLISTED = "unlisted"


class ReferencedEntity(enum.Enum):
    ENTITY1 = "entity1"
    ENTITY2 = "entity2"


@dataclass(frozen=True)
class SourceSentence:
    """One Hindi test item with its suite/set membership and gold annotations."""

    id: str
    text: str
    suite: Suite
    set_id: str
    gold_gender: GenderLabel | None = None
    speaker_gender: GenderLabel | None = None
    occupation: str | None = None
    stereotype: Stereotype | None = None
    referenced_entity: ReferencedEntity | None = None


@dataclass(frozen=True)
class StereotypeLists:
    """Occupation terms stereotypically associated with each gender (disjoint sets)."""

    male_stereotyped: frozenset[str]
    female_stereotyped: frozenset[str]

    def __post_init__(self) -> None:
        overlap = self.male_stereotyped & self.female_stereotyped
        if overlap:
            raise CorpusError(
                "stereotype lists overlap: " + ", ".join(sorted(overlap))
            )

    @classmethod
    def from_files(cls, male_path: str | Path, female_path: str | Path) -> "StereotypeLists":
        """The lists read from two occupation files; an overlap names both."""
        male, female = load_occupations(male_path), load_occupations(female_path)
        with file_errors(f"{male_path} and {female_path}", CorpusError):
            return cls(male_stereotyped=frozenset(male), female_stereotyped=frozenset(female))


def validate_sentence(sentence: SourceSentence) -> None:
    """Check the per-suite invariants; raises CorpusError on the first violation."""
    if not sentence.id:
        raise CorpusError("empty id")
    if not sentence.text:
        raise CorpusError(f"record {sentence.id!r}: empty text")
    if not contains_devanagari(sentence.text):
        raise CorpusError(f"record {sentence.id!r}: text contains no Devanagari")
    gold, speaker = sentence.gold_gender, sentence.speaker_gender
    if gold is not None and gold not in GOLD_GENDERS:
        raise CorpusError(
            f"record {sentence.id!r}: gold gender must be male or female, got {gold.value!r}"
        )
    if speaker is not None and speaker not in GOLD_GENDERS:
        raise CorpusError(f"record {sentence.id!r}: speaker gender must be male or female")

    if sentence.suite is Suite.OTSC:
        if sentence.set_id not in OTSC_QUADRANTS:
            raise CorpusError(
                f"record {sentence.id!r}: OTSC set_id must be one of "
                f"{'/'.join(OTSC_QUADRANTS)}, got {sentence.set_id!r}"
            )
        for name in ("gold_gender", "speaker_gender", "occupation"):
            if getattr(sentence, name) is None:
                raise CorpusError(f"record {sentence.id!r}: OTSC requires {name}")
        if sentence.set_id[0] != _INITIALS[speaker]:
            raise CorpusError(
                f"record {sentence.id!r}: set_id {sentence.set_id} does not match "
                f"speaker gender {speaker.value}"
            )
        if sentence.set_id[1] != _INITIALS[gold]:
            raise CorpusError(
                f"record {sentence.id!r}: set_id {sentence.set_id} does not match "
                f"friend gender {gold.value}"
            )
    elif sentence.suite is Suite.WINOMT:
        for name in ("gold_gender", "stereotype", "referenced_entity", "occupation"):
            if getattr(sentence, name) is None:
                raise CorpusError(f"record {sentence.id!r}: WinoMT requires {name}")
    elif sentence.suite is Suite.NEUTRAL:
        if gold is not None:
            raise CorpusError(
                f"record {sentence.id!r}: neutral records must not carry a gold gender"
            )


def write_sentences(
    path: str | Path, sentences: Iterable[SourceSentence], digest: Any = None
) -> int:
    """Write a sentence file; digest, a hashlib object, when given, takes its bytes."""
    return write_jsonl(path, map(line_encoder(SourceSentence), sentences), digest)


def iter_sentences(
    path: str | Path, suite: Suite | None = None, digest: Any = None
) -> Iterator[SourceSentence]:
    """Yield the validated records of a sentence file of any suite; digest, a
    hashlib object, when given, takes its bytes.

    Records may carry their suite inline (generated files always do); suite,
    when given, supplies it for records without one and rejects records of
    another suite. Neutral set ids outside the canonical S1..S7 are accepted
    with one warning per set, once the file is read. The records of one read
    share one copy of each distinct set_id and occupation.
    """
    decode = record_decoder(SourceSentence, CorpusError)
    seen_ids: dict[str, int] = {}
    shared: dict[str, str] = {}
    neutral_sets: dict[str, None] = {}
    for lineno, record in read_jsonl(path, digest):
        if suite is not None and record.get("suite") is None:
            record["suite"] = suite.value
        for name in ("set_id", "occupation"):
            if type(value := record.get(name)) is str:
                record[name] = shared.setdefault(value, value)
        sentence = decode(record, path, lineno)
        try:
            if suite is not None and sentence.suite is not suite:
                raise CorpusError(
                    f"record {sentence.id!r}: suite {sentence.suite.value!r} does not "
                    f"match expected {suite.value!r}"
                )
            validate_sentence(sentence)
            first = seen_ids.setdefault(sentence.id, lineno)
            if first != lineno:
                raise CorpusError(
                    f"duplicate id {sentence.id!r} (first seen on line {first})"
                )
        except CorpusError as exc:
            raise CorpusError(f"{path}: line {lineno}: {exc}") from None
        if sentence.suite is Suite.NEUTRAL:
            neutral_sets[sentence.set_id] = None
        yield sentence
    if not seen_ids:
        raise CorpusError(f"{path}: no records found")
    for set_id in neutral_sets:
        if set_id not in NEUTRAL_SET_IDS:
            logger.warning("%s: set id %r is outside the canonical S1..S7", path, set_id)


def read_sentences(
    path: str | Path, suite: Suite | None = None, digest: Any = None
) -> list[SourceSentence]:
    """The records of a sentence file, as iter_sentences yields them."""
    return list(iter_sentences(path, suite, digest))


def load_occupations(path: str | Path) -> list[str]:
    """Read a one-occupation-per-line UTF-8 list; as in read_jsonl, a line
    ends at "\\n" only, so U+2028 and the like stay inside it.

    Lines starting with '#' are comments; blank lines are skipped. Duplicates
    are rejected with both line numbers. A line with no Devanagari content is
    kept but logged, since occupation lists for other scripts are legal inputs.
    """
    occupations: list[str] = []
    seen: dict[str, int] = {}
    for lineno, raw in enumerate(read_text(path, CorpusError).split("\n"), start=1):
        term = raw.strip()
        if not term or term.startswith("#"):
            continue
        if term in seen:
            raise CorpusError(
                f"{path}: duplicate occupation {term!r} on lines {seen[term]} and {lineno}"
            )
        seen[term] = lineno
        if not contains_devanagari(term):
            logger.warning("%s: line %d: %r has no Devanagari content", path, lineno, term)
        occupations.append(term)
    if not occupations:
        raise CorpusError(f"{path}: no occupations found")
    return occupations


def assign_stereotype(
    occupation: str, gold_gender: GenderLabel, lists: StereotypeLists
) -> Stereotype:
    """Pro if the occupation is listed under the gold gender, Anti if under the
    opposite one, Unlisted otherwise."""
    if gold_gender not in GOLD_GENDERS:
        raise CorpusError(f"gold gender must be male or female, got {gold_gender.value!r}")
    if occupation in lists.male_stereotyped:
        return Stereotype.PRO if gold_gender is GenderLabel.MALE else Stereotype.ANTI
    if occupation in lists.female_stereotyped:
        return Stereotype.PRO if gold_gender is GenderLabel.FEMALE else Stereotype.ANTI
    return Stereotype.UNLISTED
