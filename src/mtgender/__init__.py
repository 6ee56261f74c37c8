"""Gender bias evaluation harness for Hindi-English machine translation.

Generates or ingests gender-cued Hindi test sentences, obtains English
translations through pluggable backends, classifies the translated gender by
pronoun presence, and computes balance and accuracy metrics per suite.
"""

__version__ = "0.1.0"

from .corpus import (
    GenderLabel,
    SourceSentence,
    StereotypeLists,
    Stereotype,
    Suite,
    assign_stereotype,
    load_occupations,
    read_sentences,
)
from .templates import CueInventory, OtscTemplate, expand_otsc, render_template, validate_gender_cues
from .backends import BackendConfig, MockSpec, TranslationRecord, mock_translate, translate_batch
from .classify import ClassifiedRecord, PronounLexicon, classify_batch, classify_gender
from .metrics import (
    ClassScores,
    ConfusionTally,
    OtscReport,
    Proportions,
    TgbiReport,
    WinomtReport,
    class_f1,
    compute_confusion,
    compute_otsc,
    compute_proportions,
    compute_ps,
    compute_tgbi,
    compute_tgbi_report,
    compute_winomt,
)

__all__ = [
    "__version__",
    "GenderLabel", "SourceSentence", "StereotypeLists", "Stereotype", "Suite",
    "assign_stereotype", "load_occupations", "read_sentences",
    "CueInventory", "OtscTemplate", "expand_otsc", "render_template", "validate_gender_cues",
    "BackendConfig", "MockSpec", "TranslationRecord", "mock_translate", "translate_batch",
    "ClassifiedRecord", "PronounLexicon", "classify_batch", "classify_gender",
    "ClassScores", "ConfusionTally", "OtscReport", "Proportions", "TgbiReport",
    "WinomtReport", "class_f1", "compute_confusion", "compute_otsc",
    "compute_proportions", "compute_ps", "compute_tgbi", "compute_tgbi_report",
    "compute_winomt",
]
