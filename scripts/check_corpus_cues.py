#!/usr/bin/env python3
"""Advisory check of a challenge corpus: does every record's Hindi text carry a
gender cue matching its gold label, and none of the opposite gender?"""

import argparse
import sys

from mtgender.cli import error_line
from mtgender.corpus import Suite, read_sentences
from mtgender.templates import CueInventory, validate_gender_cues


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("corpus", help="challenge corpus file (JSONL)")
    parser.add_argument("--cues", default=None,
                        help="cue inventory JSON (bundled default when omitted)")
    parser.add_argument("--fail-on-warn", action="store_true",
                        help="exit nonzero if any record warns")
    args = parser.parse_args()

    cues = CueInventory.from_file(args.cues) if args.cues else CueInventory.default()
    corpus = read_sentences(args.corpus, Suite.WINOMT)
    warnings = 0
    for record in corpus:
        result = validate_gender_cues(record, cues)
        if not result.ok:
            warnings += 1
            print(f"warn {record.id}: {result.message}")
    print(f"{len(corpus)} records checked, {warnings} warnings")
    if warnings and args.fail_on_warn:
        sys.exit(1)


if __name__ == "__main__":
    try:
        main()
    except (ValueError, OSError) as exc:  # a bad input: one line, exit 1
        sys.exit(error_line(exc))
