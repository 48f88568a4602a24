#!/usr/bin/env python3
"""Print the length bound for a range of dimensions.

The numbers grow fast (the size bound m^(L+1) stops being materializable
past n = 1), so large values are summarized by their bit length.
Everything is exact integer arithmetic; no float ever sneaks in.
"""

import argparse

from semiforge import length_bound, size_bound
from semiforge.semigroup import g_signed_permutations


def show(value, cutoff=30):
    # str() refuses integers past 4300 digits, reached at n = 35
    return str(value) if value < 10 ** cutoff else f"~2^{value.bit_length() - 1}"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=4)
    args = parser.parse_args()

    header = f"{'n':>3} {'(2n)!':>12} {'2^n n!':>10}  length bound"
    print(header)
    print("-" * 60)
    for n in range(1, args.max_n + 1):
        report = length_bound(n)
        print(f"{n:>3} {report.g_upper:>12} {g_signed_permutations(n):>10}  "
              f"{show(report.length_bound)}")
    print()
    print(f"size bound for n=1, m=2 generators: {size_bound(1, 2)}")


if __name__ == "__main__":
    main()
