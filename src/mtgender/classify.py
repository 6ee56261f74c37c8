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
from typing import Iterable

from .corpus import GenderLabel, SourceSentence
from .fileio import decode_document, file_errors, load_json

_WORD = re.compile(r"\w+")

DEFAULT_MALE_PRONOUNS = frozenset({"he", "him", "his"})
# "hers" is an artifact addition for symmetry with "his"; strict mode drops it.
DEFAULT_FEMALE_PRONOUNS = frozenset({"she", "her", "hers"})
STRICT_FEMALE_PRONOUNS = frozenset({"she", "her"})


class ClassifyError(ValueError):
    """Raised for a bad pronoun lexicon: overlapping sets, or a lexicon file
    that is malformed or holds a token that can never match."""


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
        """Read a lexicon, lower-casing its tokens as the text they match is;
        a token that is not a single \\w+ word then can never match, and is refused."""
        raw = load_json(path, ClassifyError)
        with file_errors(path, ClassifyError):
            read = decode_document(raw, cls, ClassifyError)
            for token in sorted(read.male_tokens | read.female_tokens):
                if not _WORD.fullmatch(token.lower()):
                    raise ClassifyError(f"token {token!r} is not a single word and can never match")
            return cls(*(frozenset(t.lower() for t in tokens)
                         for tokens in (read.male_tokens, read.female_tokens)))


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

