"""Reference-free gender detection on English translations.

A translation is labelled by the gendered pronouns it contains: Male if only
male pronouns occur, Female if only female ones, Neutral if none, Ambiguous if
both. Matching is case-insensitive over word-boundary tokens, so punctuation
("him,") is harmless and substrings ("here", "shed") never match.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import groupby
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .backends import TranslationRecord, TranslationStatus
from .corpus import GenderLabel, SourceSentence
from .fileio import load_json

_WORD = re.compile(r"\w+")

DEFAULT_MALE_PRONOUNS = frozenset({"he", "him", "his"})
# "hers" is an artifact addition for symmetry with "his"; strict mode drops it.
DEFAULT_FEMALE_PRONOUNS = frozenset({"she", "her", "hers"})
STRICT_FEMALE_PRONOUNS = frozenset({"she", "her"})


class ClassifyError(ValueError):
    """Raised when a batch references an unknown source id or a bad lexicon."""


def _token_pattern(tokens: Iterable[str]) -> re.Pattern[str]:
    """One regex whose matches are exactly the maximal \\w+ runs equal to a token.

    Tokens that are not a single \\w+ word (a space, an apostrophe) can never
    equal such a run, so they are left out and stay unmatchable. Alternatives
    are grouped by first character and the left word boundary is checked just
    after it, so the engine skips ahead to candidate characters instead of
    testing a look-behind at every position.
    """
    words = sorted(t for t in tokens if _WORD.fullmatch(t))
    if not words:
        return re.compile(r"(?!)")
    branches = []
    for first, group in groupby(words, key=lambda w: w[0]):
        rests = "|".join(re.escape(w[1:]) for w in group)
        branches.append(rf"{re.escape(first)}(?<!\w.)(?:{rests})")
    return re.compile(rf"(?:{'|'.join(branches)})(?!\w)")


@dataclass(frozen=True)
class PronounLexicon:
    """Gendered token sets used for detection; overridable per target language."""

    male_tokens: frozenset[str]
    female_tokens: frozenset[str]
    pattern: re.Pattern[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        overlap = self.male_tokens & self.female_tokens
        if overlap:
            raise ClassifyError("pronoun sets overlap: " + ", ".join(sorted(overlap)))
        object.__setattr__(self, "pattern", _token_pattern(self.male_tokens | self.female_tokens))

    @classmethod
    def default(cls) -> "PronounLexicon":
        return cls(DEFAULT_MALE_PRONOUNS, DEFAULT_FEMALE_PRONOUNS)

    @classmethod
    def strict(cls) -> "PronounLexicon":
        """Exactly the published detection sets: he/him/his vs she/her."""
        return cls(DEFAULT_MALE_PRONOUNS, STRICT_FEMALE_PRONOUNS)

    @classmethod
    def from_file(cls, path: str | Path) -> "PronounLexicon":
        raw = load_json(path, ClassifyError)
        if not isinstance(raw, dict):
            raise ClassifyError(f"{path}: lexicon must be an object, not {type(raw).__name__}")
        token_sets = {}
        for key in ("male_tokens", "female_tokens"):
            if key not in raw:
                raise ClassifyError(f"{path}: missing token list {key!r}")
            tokens = raw[key]
            if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
                raise ClassifyError(f"{path}: {key} must be a list of strings")
            token_sets[key] = frozenset(t.lower() for t in tokens)
        return cls(**token_sets)


_DEFAULT_LEXICON = PronounLexicon.default()


@dataclass(frozen=True)
class ClassifiedRecord:
    source: SourceSentence
    target_text: str
    predicted: GenderLabel
    matched_tokens: tuple[str, ...]


def classify_gender(
    target_text: str, lexicon: PronounLexicon | None = None
) -> tuple[GenderLabel, tuple[str, ...]]:
    """Label a translation by pronoun presence; returns matches in text order."""
    lexicon = lexicon or _DEFAULT_LEXICON
    matched = tuple(lexicon.pattern.findall(target_text.lower()))
    saw_male = any(token in lexicon.male_tokens for token in matched)
    saw_female = any(token in lexicon.female_tokens for token in matched)
    if saw_male and saw_female:
        label = GenderLabel.AMBIGUOUS
    elif saw_male:
        label = GenderLabel.MALE
    elif saw_female:
        label = GenderLabel.FEMALE
    else:
        label = GenderLabel.NEUTRAL
    return label, matched


def classify_batch(
    translations: Sequence[TranslationRecord],
    sources: Mapping[str, SourceSentence],
    lexicon: PronounLexicon | None = None,
) -> tuple[list[ClassifiedRecord], list[TranslationRecord]]:
    """Classify every Ok translation; Failed ones are returned as exclusions.

    Raises ClassifyError if an Ok translation's source_id does not resolve.
    """
    lexicon = lexicon or _DEFAULT_LEXICON
    classified: list[ClassifiedRecord] = []
    excluded: list[TranslationRecord] = []
    for translation in translations:
        if translation.status is not TranslationStatus.OK:
            excluded.append(translation)
            continue
        source = sources.get(translation.source_id)
        if source is None:
            raise ClassifyError(f"translation references unknown source id {translation.source_id!r}")
        label, tokens = classify_gender(translation.target_text, lexicon)
        classified.append(
            ClassifiedRecord(
                source=source,
                target_text=translation.target_text,
                predicted=label,
                matched_tokens=tokens,
            )
        )
    return classified, excluded
