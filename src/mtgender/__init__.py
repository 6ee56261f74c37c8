"""Gender bias evaluation harness for Hindi-English machine translation.

Generates or ingests gender-cued Hindi test sentences, obtains English
translations through pluggable backends, classifies the translated gender by
pronoun presence, and computes balance and accuracy metrics per suite.
"""

__version__ = "0.1.0"

from .corpus import Suite, iter_sentences, load_occupations
from .templates import iter_otsc
from .classify import classify_gender

__all__ = [
    "__version__", "Suite", "classify_gender", "iter_otsc", "iter_sentences",
    "load_occupations",
]
