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
    HashScreen, contains_devanagari, file_errors, line_encoder, read_jsonl, read_text,
    record_decoder, write_jsonl,
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


#: The gender each letter of an OTSC quadrant code names: the speaker's, then the friend's.
QUADRANT_GENDERS = {"M": GenderLabel.MALE, "F": GenderLabel.FEMALE}

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


def check_disjoint(male: frozenset[str], female: frozenset[str], what: str,
                   error: type[ValueError]) -> None:
    """Raise error naming, sorted, the terms that a male and a female set share."""
    if overlap := male & female:
        raise error(f"{what} overlap: " + ", ".join(sorted(overlap)))


@dataclass(frozen=True)
class StereotypeLists:
    """Occupation terms stereotypically associated with each gender (disjoint sets)."""

    male_stereotyped: frozenset[str]
    female_stereotyped: frozenset[str]

    def __post_init__(self) -> None:
        check_disjoint(self.male_stereotyped, self.female_stereotyped, "stereotype lists",
                       CorpusError)

    @classmethod
    def from_files(cls, male_path: str | Path, female_path: str | Path) -> "StereotypeLists":
        """The lists read from two occupation files; an overlap names both."""
        male, female = load_occupations(male_path), load_occupations(female_path)
        with file_errors(f"{male_path} and {female_path}", CorpusError):
            return cls(male_stereotyped=frozenset(male), female_stereotyped=frozenset(female))


# suite: (its name in messages, its set ids or None for any, the fields it requires)
_SUITE_RULES = {
    Suite.OTSC: ("OTSC", OTSC_QUADRANTS, ("gold_gender", "speaker_gender", "occupation")),
    Suite.WINOMT: ("WinoMT", None, ("gold_gender", "stereotype", "referenced_entity",
                                    "occupation")),
    Suite.NEUTRAL: ("neutral", None, ()),
}


def validate_sentence(sentence: SourceSentence) -> None:
    """Check the per-suite invariants; raises CorpusError on the first violation."""
    record = f"record {sentence.id!r}"
    if not contains_devanagari(sentence.text):
        raise CorpusError(f"{record}: text contains no Devanagari")
    gold, speaker = sentence.gold_gender, sentence.speaker_gender
    if gold is not None and gold not in GOLD_GENDERS:
        raise CorpusError(f"{record}: gold gender must be male or female, got {gold.value!r}")
    if speaker is not None and speaker not in GOLD_GENDERS:
        raise CorpusError(f"{record}: speaker gender must be male or female")
    suite, set_ids, required = _SUITE_RULES[sentence.suite]
    if set_ids is not None and sentence.set_id not in set_ids:
        raise CorpusError(f"{record}: {suite} set_id must be one of {'/'.join(set_ids)}, "
                          f"got {sentence.set_id!r}")
    for name in required:
        if getattr(sentence, name) is None:
            raise CorpusError(f"{record}: {suite} requires {name}")
    if sentence.suite is Suite.OTSC:
        for letter, whose, gender in zip(sentence.set_id, ("speaker", "friend"), (speaker, gold)):
            if QUADRANT_GENDERS[letter] is not gender:
                raise CorpusError(f"{record}: set_id {sentence.set_id} does not match "
                                  f"{whose} gender {gender.value}")
    elif sentence.suite is Suite.NEUTRAL and gold is not None:
        raise CorpusError(f"{record}: neutral records must not carry a gold gender")


def write_sentences(
    path: str | Path, sentences: Iterable[SourceSentence], digest: Any = None
) -> int:
    """Write a sentence file; digest, a hashlib object, when given, takes its bytes."""
    return write_jsonl(path, map(line_encoder(SourceSentence), sentences), digest)


#: The duplicate screen's hash of an id; hash() never returns -1, the screen's free slot.
_id_hash = hash


def iter_sentences(
    path: str | Path, suite: Suite | None = None, digest: Any = None, warn: bool = True
) -> Iterator[SourceSentence]:
    """Yield the validated records of a sentence file of any suite; digest, a
    hashlib object, when given, takes its bytes.

    Records may carry their suite inline (generated files always do); suite,
    when given, supplies it for records without one and rejects records of
    another suite. Neutral set ids outside the canonical S1..S7 are accepted
    with one warning per set, once the file is read, unless warn is false.
    """
    decode = record_decoder(SourceSentence, CorpusError)
    ids = HashScreen()
    neutral_sets: dict[str, None] = {}
    for lineno, record in read_jsonl(path, digest):
        if suite is not None and record.get("suite") is None:
            record["suite"] = suite.value
        sentence = decode(record, path, lineno)
        try:
            if suite is not None and sentence.suite is not suite:
                raise CorpusError(
                    f"record {sentence.id!r}: suite {sentence.suite.value!r} does not "
                    f"match expected {suite.value!r}"
                )
            validate_sentence(sentence)
            if ids.insert(_id_hash(sentence.id)):
                first = next(line for line, earlier in read_jsonl(path)
                             if earlier["id"] == sentence.id)
                if first != lineno:
                    raise CorpusError(
                        f"duplicate id {sentence.id!r} (first seen on line {first})"
                    )
        except CorpusError as exc:
            raise CorpusError(f"{path}: line {lineno}: {exc}") from None
        if sentence.suite is Suite.NEUTRAL:
            neutral_sets[sentence.set_id] = None
        yield sentence
    if not ids.n:
        raise CorpusError(f"{path}: no records found")
    for set_id in neutral_sets if warn else ():
        if set_id not in NEUTRAL_SET_IDS:
            logger.warning("%s: set id %r is outside the canonical S1..S7", path, set_id)


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
