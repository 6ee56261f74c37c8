"""Gender bias evaluation harness for Hindi-English machine translation.

Generates or ingests gender-cued Hindi test sentences, obtains English
translations through pluggable backends, classifies the translated gender by
pronoun presence, and computes balance and accuracy metrics per suite.
"""

__version__ = "0.1.0"

from .corpus import Suite, load_occupations, read_sentences
from .templates import expand_otsc
from .classify import classify_gender

__all__ = [
    "__version__", "Suite", "classify_gender", "expand_otsc", "read_sentences",
    "load_occupations",
]
