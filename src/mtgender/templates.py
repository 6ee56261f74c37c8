"""Occupation-template expansion into gender quadrants and gender-cue checks.

The default template is a Hindi sentence of the form "I have known [him/her]
for a long time, my friend works as a [occupation]." where the speaker's
gender is carried by the inflected verb (जानता / जानती) and the friend's
gender by the possessive plus verb pair (मेरा...करता / मेरी...करती). Expanding
an occupation list over the four speaker x friend combinations yields the
FF/FM/MF/MM quadrants.

Templates are data, not code: a JSON file supplies the skeleton and the
gender-inflected fragments, so other templates or languages can reuse the
expansion engine.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

from .corpus import (
    OTSC_QUADRANTS, QUADRANT_GENDERS, GenderLabel, SourceSentence, Suite, check_disjoint,
)
from .fileio import decode_document, devanagari_tokens, file_errors, load_json
from .resources import data_path

logger = logging.getLogger(__name__)

_PLACEHOLDER = re.compile(r"\{([A-Za-z_][A-Za-z0-9_]*)\}")


class TemplateError(ValueError):
    """Raised for malformed templates."""


@dataclass(frozen=True)
class OtscTemplate:
    """The four-quadrant occupation template, split into its gendered fragments.

    ``skeleton`` holds the sentence frame with {prefix}, {possessive},
    {occupation} and {verb} slots; the remaining fields hold the fragments
    selected per quadrant.
    """

    skeleton: str
    prefix_male_speaker: str
    prefix_female_speaker: str
    possessive_male_friend: str
    possessive_female_friend: str
    verb_male_friend: str
    verb_female_friend: str
    occupation_slot: str = "occupation"

    def __post_init__(self) -> None:
        slots = _PLACEHOLDER.findall(self.skeleton)
        if slots.count(self.occupation_slot) != 1:
            raise TemplateError(
                f"skeleton must contain the {{{self.occupation_slot}}} slot exactly once"
            )
        unknown = set(slots) - {"prefix", "possessive", "verb", self.occupation_slot}
        if unknown:
            raise TemplateError(f"skeleton has unknown slots: {sorted(unknown)}")
        fragments = {  # slot: (male, female, what the pair is)
            "prefix": (self.prefix_male_speaker, self.prefix_female_speaker, "speaker prefixes"),
            "possessive": (self.possessive_male_friend, self.possessive_female_friend,
                           "possessives"),
            "verb": (self.verb_male_friend, self.verb_female_friend, "friend verbs"),
        }
        for male, female, what in fragments.values():
            if male == female:
                raise TemplateError(f"{what} must differ between genders")
        fragments.pop(self.occupation_slot, None)
        for unused in sorted(set(fragments) - set(slots)):
            logger.warning("binding %r does not appear in the template", unused)
        # Each quadrant's text before and after the occupation, built once. No
        # placeholder spans the slot, so substituting each side on its own is
        # substituting the whole skeleton.
        sides = self.skeleton.split(f"{{{self.occupation_slot}}}")
        frames = {}
        for quadrant in OTSC_QUADRANTS:
            # the speaker's gender picks the prefix, the friend's the other two
            chosen = {name: pair[quadrant[name != "prefix"] == "F"]
                      for name, pair in fragments.items()}
            frames[quadrant] = [
                _PLACEHOLDER.sub(lambda m: chosen[m.group(1)], side) for side in sides]
        object.__setattr__(self, "_frames", frames)  # not a field: not read from the file

    @classmethod
    def from_file(cls, path: str | Path) -> "OtscTemplate":
        """Read a template; unlike other documents, it may hold no other keys."""
        raw = load_json(path, TemplateError)
        with file_errors(path, TemplateError):
            extra = set(raw) - set(cls.__dataclass_fields__) if isinstance(raw, dict) else ()
            if extra:
                raise TemplateError(f"unknown template fields: {sorted(extra)}")
            return decode_document(raw, cls, TemplateError)

    @classmethod
    def default(cls) -> "OtscTemplate":
        return cls.from_file(data_path("otsc_template.json"))

    def render_quadrant(self, quadrant: str, occupation: str) -> str:
        """Render one of FF/FM/MF/MM (speaker gender, friend gender) for an occupation."""
        if quadrant not in OTSC_QUADRANTS:
            raise TemplateError(f"unknown quadrant {quadrant!r}")
        before, after = self._frames[quadrant]
        return before + occupation + after


def iter_otsc(
    occupations: Sequence[str], template: OtscTemplate | None = None
) -> Iterator[SourceSentence]:
    """The 4 x len(occupations) quadrant sentences of an occupation list, made
    as they are taken; the list and the template are checked before the first.

    Output is deterministic and ordered by occupation, then by quadrant in
    FF, FM, MF, MM order; ids encode the quadrant and the occupation index.
    """
    if not occupations:
        raise TemplateError("occupation list is empty")
    if len(set(occupations)) != len(occupations):
        raise TemplateError("occupation list contains duplicates")
    template = template or OtscTemplate.default()
    return (
        SourceSentence(
            id=f"otsc-{quadrant}-{index:05d}",
            text=template.render_quadrant(quadrant, occupation),
            suite=Suite.OTSC,
            set_id=quadrant,
            gold_gender=QUADRANT_GENDERS[quadrant[1]],
            speaker_gender=QUADRANT_GENDERS[quadrant[0]],
            occupation=occupation,
        )
        for index, occupation in enumerate(occupations) for quadrant in OTSC_QUADRANTS
    )


@dataclass(frozen=True)
class CueInventory:
    """Gender-marking Hindi tokens, e.g. inflected verbs and adjectives."""

    male_cues: frozenset[str]
    female_cues: frozenset[str]

    def __post_init__(self) -> None:
        check_disjoint(self.male_cues, self.female_cues, "cue inventories", TemplateError)

    @classmethod
    def from_file(cls, path: str | Path) -> "CueInventory":
        raw = load_json(path, TemplateError)
        with file_errors(path, TemplateError):
            return decode_document(raw, cls, TemplateError)

    @classmethod
    def default(cls) -> "CueInventory":
        return cls.from_file(data_path("cue_inventory.json"))


@dataclass(frozen=True)
class CueValidation:
    """Advisory result of checking a record's text against a cue inventory."""

    record_id: str
    ok: bool
    matched_gold: tuple[str, ...]
    matched_opposite: tuple[str, ...]
    message: str


def validate_gender_cues(record: SourceSentence, cues: CueInventory) -> CueValidation:
    """Check that the text carries at least one cue of the gold gender and none
    of the opposite gender. Advisory only: returns pass/warn, never raises."""
    if record.suite is not Suite.WINOMT:
        raise TemplateError("cue validation applies to WinoMT records only")
    if record.gold_gender is GenderLabel.MALE:
        gold_cues, opposite_cues = cues.male_cues, cues.female_cues
    else:
        gold_cues, opposite_cues = cues.female_cues, cues.male_cues
    tokens = devanagari_tokens(record.text)
    matched_gold = tuple(t for t in tokens if t in gold_cues)
    matched_opposite = tuple(t for t in tokens if t in opposite_cues)
    if matched_gold and not matched_opposite:
        return CueValidation(record.id, True, matched_gold, matched_opposite, "ok")
    if matched_opposite:
        message = "opposite-gender cue present: " + ", ".join(matched_opposite)
    else:
        message = "no cue found"
    return CueValidation(record.id, False, matched_gold, matched_opposite, message)
