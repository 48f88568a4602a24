#!/usr/bin/env python3
"""Exhaustive shortener sweep over small generator families.

Enumerates every 2 x 2 morphism table of one or two generators with
entries in {0, 1, -1}, filters to finite semigroups, rewrites every word
up to a length limit, and reports aggregate statistics (compression
ratios, the longest output seen, failures, group-order bound checks, wall
time); it exits 1 when any output fails or breaks the bound. Useful for spotting regressions and for
getting a feel of how far below the worst-case bound real outputs sit.
"""

import argparse
import itertools
import sys
import time
from dataclasses import dataclass

from semiforge import Mat, MorphismTable, Shortener, decide_finiteness, det


@dataclass
class SweepConfig:
    max_word_length: int = 8
    max_closure: int = 60


def enumerate_tables(config: SweepConfig):
    """The one-generator tables, then the two-generator ones (no field of
    `config` narrows them)."""
    mats = [Mat([(a, b), (c, d)]) for a, b, c, d in itertools.product((0, 1, -1), repeat=4)]
    return itertools.chain(
        (MorphismTable(2, ("a",), {"a": m}) for m in mats),
        (MorphismTable(2, ("a", "b"), {"a": m1, "b": m2})
         for m1, m2 in itertools.combinations(mats, 2)))


def all_words(alphabet, max_len):
    for length in range(1, max_len + 1):
        yield from itertools.product(alphabet, repeat=length)


def run_sweep(config: SweepConfig) -> dict:
    """Shorten every word of every finite table. A failure is an output
    that is longer than its input or has another value. For tables whose
    generators are all invertible, each output is also checked against
    the group-order bound |group| - 1."""
    start = time.monotonic()
    stats = {"tables": 0, "finite": 0, "words": 0, "shortened": 0,
             "max_output": 0, "total_in": 0, "total_out": 0, "failures": 0,
             "group_checks": 0, "group_violations": 0}
    for table in enumerate_tables(config):
        stats["tables"] += 1
        verdict = decide_finiteness(table, config.max_closure + 1)
        if verdict.status != "finite" or len(verdict.closure) > config.max_closure:
            continue
        stats["finite"] += 1
        shortener = Shortener(table, assume_finite=True)
        # invertible generators of a finite semigroup generate a group
        invertible = all(det(table.mapping[a]) != 0 for a in table.alphabet)
        group_order = len(verdict.closure) if invertible else None
        best = {}
        values = {(): Mat.identity(2)}  # all_words yields each prefix first
        for word in all_words(table.alphabet, config.max_word_length):
            value = values[word] = values[word[:-1]] * table.mapping[word[-1]]
            u = best.get(value)
            if u is None or len(u) > len(word):
                u = shortener.shorten(word)
                if table.evaluate(u) != value:
                    stats["failures"] += 1
                best[value] = u
            if len(u) > len(word):
                stats["failures"] += 1
            stats["words"] += 1
            stats["total_in"] += len(word)
            stats["total_out"] += len(u)
            stats["max_output"] = max(stats["max_output"], len(u))
            if len(u) < len(word):
                stats["shortened"] += 1
            if group_order is not None:
                stats["group_checks"] += 1
                if len(u) > group_order - 1:
                    stats["group_violations"] += 1
    stats["seconds"] = round(time.monotonic() - start, 2)
    return stats


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-word-length", type=int, default=8)
    parser.add_argument("--max-closure", type=int, default=60)
    args = parser.parse_args()
    stats = run_sweep(SweepConfig(args.max_word_length, args.max_closure))
    for k, v in stats.items():
        print(f"{k}: {v}")
    if stats["total_in"]:
        print(f"compression: {stats['total_out'] / stats['total_in']:.3f}")
    return 1 if stats["failures"] or stats["group_violations"] else 0


if __name__ == "__main__":
    sys.exit(main())
