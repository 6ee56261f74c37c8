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
from typing import Iterable

from .fileio import contains_devanagari, from_record, read_jsonl, to_record, write_jsonl

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

    @property
    def initial(self) -> str:
        return {"male": "M", "female": "F"}[self.value]


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
        return cls(
            male_stereotyped=frozenset(load_occupations(male_path)),
            female_stereotyped=frozenset(load_occupations(female_path)),
        )


def validate_sentence(sentence: SourceSentence, *, where: str = "") -> None:
    """Check the per-suite invariants; raises CorpusError on the first violation."""
    ctx = f"{where}: " if where else ""
    if not sentence.id:
        raise CorpusError(f"{ctx}empty id")
    if not sentence.text:
        raise CorpusError(f"{ctx}record {sentence.id!r}: empty text")
    if not contains_devanagari(sentence.text):
        raise CorpusError(f"{ctx}record {sentence.id!r}: text contains no Devanagari")
    if sentence.gold_gender is not None and sentence.gold_gender not in GOLD_GENDERS:
        raise CorpusError(
            f"{ctx}record {sentence.id!r}: gold gender must be male or female, "
            f"got {sentence.gold_gender.value!r}"
        )
    if sentence.speaker_gender is not None and sentence.speaker_gender not in GOLD_GENDERS:
        raise CorpusError(
            f"{ctx}record {sentence.id!r}: speaker gender must be male or female"
        )

    if sentence.suite is Suite.OTSC:
        if sentence.set_id not in OTSC_QUADRANTS:
            raise CorpusError(
                f"{ctx}record {sentence.id!r}: OTSC set_id must be one of "
                f"{'/'.join(OTSC_QUADRANTS)}, got {sentence.set_id!r}"
            )
        for name in ("gold_gender", "speaker_gender", "occupation"):
            if getattr(sentence, name) is None:
                raise CorpusError(f"{ctx}record {sentence.id!r}: OTSC requires {name}")
        assert sentence.speaker_gender is not None and sentence.gold_gender is not None
        if sentence.set_id[0] != sentence.speaker_gender.initial:
            raise CorpusError(
                f"{ctx}record {sentence.id!r}: set_id {sentence.set_id} does not match "
                f"speaker gender {sentence.speaker_gender.value}"
            )
        if sentence.set_id[1] != sentence.gold_gender.initial:
            raise CorpusError(
                f"{ctx}record {sentence.id!r}: set_id {sentence.set_id} does not match "
                f"friend gender {sentence.gold_gender.value}"
            )
    elif sentence.suite is Suite.WINOMT:
        for name in ("gold_gender", "stereotype", "referenced_entity", "occupation"):
            if getattr(sentence, name) is None:
                raise CorpusError(f"{ctx}record {sentence.id!r}: WinoMT requires {name}")
    elif sentence.suite is Suite.NEUTRAL:
        if sentence.gold_gender is not None:
            raise CorpusError(
                f"{ctx}record {sentence.id!r}: neutral records must not carry a gold gender"
            )


def write_sentences(path: str | Path, sentences: Iterable[SourceSentence]) -> int:
    return write_jsonl(path, (to_record(s) for s in sentences))


def read_sentences(path: str | Path, suite: Suite | None = None) -> list[SourceSentence]:
    """Read and validate a sentence file of any suite.

    Records may carry their suite inline (generated files always do); suite,
    when given, supplies it for records without one and rejects records of
    another suite. Neutral set ids outside the canonical S1..S7 are accepted
    with one warning per set.
    """
    sentences: list[SourceSentence] = []
    seen_ids: dict[str, int] = {}
    for lineno, record in read_jsonl(path):
        where = f"{path}: line {lineno}"
        if suite is not None and record.get("suite") is None:
            record["suite"] = suite.value
        sentence = from_record(SourceSentence, record, CorpusError, where)
        if suite is not None and sentence.suite is not suite:
            raise CorpusError(
                f"{where}: record {sentence.id!r}: suite {sentence.suite.value!r} does not "
                f"match expected {suite.value!r}"
            )
        validate_sentence(sentence, where=where)
        if sentence.id in seen_ids:
            raise CorpusError(
                f"{where}: duplicate id {sentence.id!r} (first seen on line "
                f"{seen_ids[sentence.id]})"
            )
        seen_ids[sentence.id] = lineno
        sentences.append(sentence)
    if not sentences:
        raise CorpusError(f"{path}: no records found")
    for set_id in dict.fromkeys(s.set_id for s in sentences if s.suite is Suite.NEUTRAL):
        if set_id not in NEUTRAL_SET_IDS:
            logger.warning("%s: set id %r is outside the canonical S1..S7", path, set_id)
    return sentences


def load_occupations(path: str | Path) -> list[str]:
    """Read a one-occupation-per-line UTF-8 list.

    Lines starting with '#' are comments; blank lines are skipped. Duplicates
    are rejected with both line numbers. A line with no Devanagari content is
    kept but logged, since occupation lists for other scripts are legal inputs.
    """
    path = Path(path)
    if not path.exists():
        raise CorpusError(f"{path}: no such file")
    occupations: list[str] = []
    seen: dict[str, int] = {}
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
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
