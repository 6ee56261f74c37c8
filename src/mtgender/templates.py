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
from typing import Mapping, Sequence

from .corpus import (
    OTSC_QUADRANTS,
    GenderLabel,
    SourceSentence,
    Suite,
)
from .fileio import devanagari_tokens, load_json
from .resources import data_path

logger = logging.getLogger(__name__)

_PLACEHOLDER = re.compile(r"\{([A-Za-z_][A-Za-z0-9_]*)\}")


class TemplateError(ValueError):
    """Raised for malformed templates or unbound placeholders."""


def render_template(template_text: str, bindings: Mapping[str, str]) -> str:
    """Substitute every ``{name}`` placeholder; all other characters pass through.

    Unbound placeholders raise TemplateError naming the placeholder; bindings
    that never appear in the text are logged, not fatal.
    """
    used: set[str] = set()

    def substitute(match: re.Match[str]) -> str:
        name = match.group(1)
        if name not in bindings:
            raise TemplateError(f"unbound placeholder {name!r}")
        used.add(name)
        return bindings[name]

    rendered = _PLACEHOLDER.sub(substitute, template_text)
    for unused in sorted(set(bindings) - used):
        logger.warning("binding %r does not appear in the template", unused)
    return rendered


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
        for male, female, what in (
            (self.prefix_male_speaker, self.prefix_female_speaker, "speaker prefixes"),
            (self.possessive_male_friend, self.possessive_female_friend, "possessives"),
            (self.verb_male_friend, self.verb_female_friend, "friend verbs"),
        ):
            if male == female:
                raise TemplateError(f"{what} must differ between genders")

    @classmethod
    def from_file(cls, path: str | Path) -> "OtscTemplate":
        raw = load_json(path, TemplateError)
        if not isinstance(raw, dict):
            raise TemplateError(f"{path}: template must be an object, not {type(raw).__name__}")
        known = {f for f in cls.__dataclass_fields__}
        missing = {f for f in known if f != "occupation_slot"} - set(raw)
        if missing:
            raise TemplateError(f"{path}: missing template fields: {sorted(missing)}")
        extra = set(raw) - known
        if extra:
            raise TemplateError(f"{path}: unknown template fields: {sorted(extra)}")
        for name, value in raw.items():
            if not isinstance(value, str):
                raise TemplateError(f"{path}: {name} must be a string, not {value!r}")
        return cls(**raw)

    @classmethod
    def default(cls) -> "OtscTemplate":
        return cls.from_file(data_path("otsc_template.json"))

    def render_quadrant(self, quadrant: str, occupation: str) -> str:
        """Render one of FF/FM/MF/MM (speaker gender, friend gender) for an occupation."""
        if quadrant not in OTSC_QUADRANTS:
            raise TemplateError(f"unknown quadrant {quadrant!r}")
        speaker, friend = quadrant[0], quadrant[1]
        bindings = {
            "prefix": self.prefix_male_speaker if speaker == "M" else self.prefix_female_speaker,
            "possessive": (
                self.possessive_male_friend if friend == "M" else self.possessive_female_friend
            ),
            "verb": self.verb_male_friend if friend == "M" else self.verb_female_friend,
            self.occupation_slot: occupation,
        }
        return render_template(self.skeleton, bindings)


def expand_otsc(
    occupations: Sequence[str], template: OtscTemplate | None = None
) -> list[SourceSentence]:
    """Expand an occupation list into 4 x len(occupations) quadrant sentences.

    Output is deterministic and ordered by occupation, then by quadrant in
    FF, FM, MF, MM order; ids encode the quadrant and the occupation index.
    """
    if not occupations:
        raise TemplateError("occupation list is empty")
    if len(set(occupations)) != len(occupations):
        raise TemplateError("occupation list contains duplicates")
    template = template or OtscTemplate.default()
    gender_of = {"M": GenderLabel.MALE, "F": GenderLabel.FEMALE}
    sentences: list[SourceSentence] = []
    for index, occupation in enumerate(occupations):
        for quadrant in OTSC_QUADRANTS:
            sentences.append(
                SourceSentence(
                    id=f"otsc-{quadrant}-{index:05d}",
                    text=template.render_quadrant(quadrant, occupation),
                    suite=Suite.OTSC,
                    set_id=quadrant,
                    gold_gender=gender_of[quadrant[1]],
                    speaker_gender=gender_of[quadrant[0]],
                    occupation=occupation,
                )
            )
    return sentences


@dataclass(frozen=True)
class CueInventory:
    """Gender-marking Hindi tokens, e.g. inflected verbs and adjectives."""

    male_cues: frozenset[str]
    female_cues: frozenset[str]

    def __post_init__(self) -> None:
        overlap = self.male_cues & self.female_cues
        if overlap:
            raise TemplateError("cue inventories overlap: " + ", ".join(sorted(overlap)))

    @classmethod
    def from_file(cls, path: str | Path) -> "CueInventory":
        raw = load_json(path, TemplateError)
        if not isinstance(raw, dict):
            raise TemplateError(
                f"{path}: cue inventory must be an object, not {type(raw).__name__}")
        cues = {}
        for key in ("male_cues", "female_cues"):
            if key not in raw:
                raise TemplateError(f"{path}: missing cue list {key!r}")
            if not isinstance(raw[key], list) or not all(isinstance(c, str) for c in raw[key]):
                raise TemplateError(f"{path}: {key} must be a list of strings")
            cues[key] = frozenset(raw[key])
        return cls(**cues)

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
