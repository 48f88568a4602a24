#!/usr/bin/env python3
"""semiforge benchmark: one seeded workload per process, every answer checked.

Run from the repository root:

    python3 perfbench/run.py --workload shorten --seed 1 --seconds 20 --trace 0

Each workload is a closed loop with one client and no threads: the next
operation starts when the previous one has returned. A set-up builds one
round of ops from --seed alone; every set-up from the same seed builds the
same round. Only the library call of an op is timed; its answer is then
checked by the benchmark's own arithmetic (oracle.py).

--trace 0 sets up and runs a round, on a fresh set-up each time so no
cache in the library carries over, for at least MIN_ROUNDS rounds and
then for as long as another round fits into --seconds. Each op counts at
its median over the rounds.

Times are reported at nominal pace. The shared machine this was tuned on
switches between a fast and a slow state (up to 1.8x apart) every few
seconds. So a fixed piece of Fraction arithmetic, pace_kernel, which
calls no library code, runs before the first op and after each, and an
op's time is scaled by PACE_NOMINAL_S over the median time of the
pace_kernel runs around it. Set-up time is scaled the same way. A change
to the library changes the scaled times; a change in machine speed
mostly does not. The times as measured are printed too.

It prints the end-to-end metrics: setup_s (median set-up), ops_per_s,
op_p50_ms, op_tail_ms (the highest percentile with at least ten samples
beyond it) and peak_rss_mb. fail_frac and, for shorten and sweep,
out_in_ratio are printed on the lines before the result, with the
percentile and sample counts.

--trace 1 sets up twice per round and runs each op untraced on the first
set-up and then traced on the second, for at least one round and then as
long as --seconds allows. It prints per-layer counts and self times per
op (spans.py), as measured, and the tracing overhead. The spans are
written to .perfbench-trace/<workload>.csv, replacing the last run's.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; attempted and failed count runs
of an op.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_ROUNDS = 2
TAIL_BEYOND = 10


def import_library():
    """Put the checkout's src/ first on sys.path; refuse any other copy."""
    src = ROOT / "src"
    needed = (src / "semiforge" / "__init__.py", ROOT / "scripts" / "sweep_shortener.py")
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        sys.exit(f"error: run from a semiforge checkout; missing {', '.join(missing)}")
    sys.path.insert(0, str(src))
    import semiforge
    if Path(semiforge.__file__).resolve().parent != (src / "semiforge").resolve():
        sys.exit(f"error: imported semiforge from {semiforge.__file__}, not from {src}")


def pace_kernel() -> Fraction:
    """A fixed piece of the arithmetic the library spends its time on:
    products of small Fraction matrices, with no library call."""
    x = Fraction(0)
    for m in PACE_MATRICES:
        prod = PACE_MATRICES[0]
        for _ in range(2):
            prod = [[sum((a * b for a, b in zip(row, col)), Fraction(0)) for col in zip(*m)]
                    for row in prod]
        x += prod[0][0]
    return x


PACE_MATRICES = [[[Fraction((i * 5 + j * 3 + k) % 7 - 3, (i + j + k) % 4 + 1)
                   for j in range(4)] for i in range(4)] for k in range(4)]
PACE_VALUE = pace_kernel()
# pace_kernel's usual time on the machine the benchmark was tuned on (a
# 2-vCPU VM, Python 3.11); scaled times read as times on that machine
PACE_NOMINAL_S = 0.003


def pace() -> float:
    """Seconds one run of pace_kernel takes now."""
    start = time.perf_counter()
    value = pace_kernel()
    elapsed = time.perf_counter() - start
    assert value == PACE_VALUE
    return elapsed


def at_nominal_pace(seconds: float, paces) -> float:
    """`seconds` measured while pace_kernel took the median of `paces`, as
    it would read on the machine where pace_kernel takes PACE_NOMINAL_S."""
    return seconds * PACE_NOMINAL_S / statistics.median(paces)


@dataclass
class Pass:
    latencies: list = field(default_factory=list)
    # pace() before the first op and after every op, when pacing
    paces: list = field(default_factory=list)
    failed: int = 0
    letters_in: int = 0
    letters_out: int = 0
    kinds: dict = field(default_factory=dict)

    @property
    def busy_s(self) -> float:
        return sum(self.latencies)

    def scaled(self) -> list:
        """Each latency at nominal pace, by the two paces before it and
        the two after it."""
        return [at_nominal_pace(t, self.paces[max(i - 1, 0):i + 3])
                for i, t in enumerate(self.latencies)]


def run_op(workload, op, result: Pass, corrupt: bool = False):
    """Time one op's library call, then check its answer."""
    start = time.perf_counter()
    try:
        answer = op.call()
    except Exception:
        traceback.print_exc(file=sys.stderr)
        answer = None
    result.latencies.append(time.perf_counter() - start)
    if corrupt and answer is not None:
        answer = workload.corrupt(answer)
    try:
        ok = answer is not None and bool(op.check(answer))
    except Exception:
        traceback.print_exc(file=sys.stderr)
        ok = False
    result.kinds[op.kind] = result.kinds.get(op.kind, 0) + 1
    if not ok:
        result.failed += 1
        print(f"check failed: op {len(result.latencies) - 1} ({op.kind})", file=sys.stderr)
    elif op.letters is not None:
        letters_in, letters_out = op.letters(answer)
        result.letters_in += letters_in
        result.letters_out += letters_out


def run_round(workload, ops, result: Pass, corrupt: bool = False, paced: bool = False,
              traced=None):
    """Run every op of one set-up once, in order. When `paced`, pace() runs
    before the first op and after each. With `traced` = (tracer, twin ops,
    Pass), each op runs untraced into `result` and then its twin from an
    identical set-up runs traced."""
    # the inputs stay alive for the whole round; frozen, they no longer add
    # to the cost of the library's own garbage collections
    gc.collect()
    gc.freeze()
    try:
        if paced:
            result.paces.append(pace())
        for i, op in enumerate(ops):
            run_op(workload, op, result, corrupt=corrupt and i == 0)
            if paced:
                result.paces.append(pace())
            if traced is not None:
                tracer, twins, traced_pass = traced
                tracer.install()
                try:
                    run_op(workload, twins[i], traced_pass)
                finally:
                    tracer.uninstall()
    finally:
        gc.unfreeze()


def tail(latencies: list) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(latencies)
    k = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def report(title: str, p: Pass, latencies: list, attempted: int, failed: int):
    n = len(latencies)
    kinds = ", ".join(f"{k} {v}" for k, v in sorted(p.kinds.items()))
    print(f"{title}: {n} ops ({kinds}), {sum(latencies):.3f} s in library calls at nominal pace")
    value, pct = tail(latencies)
    print(f"op_p50_ms {1000 * statistics.median(latencies):.3f} over {n} samples; "
          f"op_tail_ms {1000 * value:.3f} is p{pct:.1f} over {n} samples "
          f"({n - round(pct * n / 100)} beyond)")
    print(f"fail_frac {failed / attempted:.6g} ({failed}/{attempted} runs of an op)")
    if p.letters_in:
        print(f"out_in_ratio {p.letters_out / p.letters_in:.6f} "
              f"({p.letters_out}/{p.letters_in} letters)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("groups", "shorten", "sweep", "automata"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test: tiny inputs")
    parser.add_argument("--inject-fault", action="store_true",
                        help="self-test: corrupt the first answer before it is checked")
    args = parser.parse_args(argv)

    import_library()
    import spans
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        workdir = Path(tmp)

        def setup():
            """(ops, set-up seconds at nominal pace)"""
            paces = [pace(), pace()]
            start = time.perf_counter()
            ops = workload.setup(args.seed, workdir, args.tiny)
            elapsed = time.perf_counter() - start
            paces += [pace(), pace()]
            return ops, at_nominal_pace(elapsed, paces)

        starts = []

        def another_round() -> bool:
            """True until MIN_ROUNDS (1 when tracing) have run, then while
            another round, set-up included and as long as the longest so far,
            fits into --seconds."""
            starts.append(time.perf_counter())
            if len(starts) <= (1 if args.trace else MIN_ROUNDS):
                return True
            longest = max(b - a for a, b in zip(starts, starts[1:]))
            return starts[-1] - starts[0] + longest <= args.seconds

        rounds = []
        if not args.trace:
            setup_times = []
            while another_round():
                ops, elapsed = setup()
                setup_times.append(elapsed)
                rounds.append(Pass())
                run_round(workload, ops, rounds[-1], paced=True,
                          corrupt=args.inject_fault and len(rounds) == 1)
                del ops  # let this set-up's inputs go before the next is built
            latencies = [statistics.median(times) for times in zip(*(p.scaled() for p in rounds))]
            raw = [statistics.median(times) for times in zip(*(p.latencies for p in rounds))]
            attempted = sum(len(p.latencies) for p in rounds)
            failed = sum(p.failed for p in rounds)
            report(f"{args.workload} seed {args.seed}, median of {len(rounds)} rounds",
                   rounds[0], latencies, attempted, failed)
            paces = [x for p in rounds for x in p.paces]
            print(f"as measured: {len(raw) / sum(raw):.6g} ops/s, "
                  f"p50 {1000 * statistics.median(raw):.3f} ms, tail {1000 * tail(raw)[0]:.3f} ms; "
                  f"pace_kernel took {1000 * min(paces):.3f}-{1000 * max(paces):.3f} ms, "
                  f"median {1000 * statistics.median(paces):.3f} ms")
            metrics = {
                "setup_s": (statistics.median(setup_times), "s"),
                "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
                "op_p50_ms": (1000 * statistics.median(latencies), "ms"),
                "op_tail_ms": (1000 * tail(latencies)[0], "ms"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
        else:
            # op i runs untraced on one set-up, then traced on an identical
            # second one, so drift in machine speed hits both alike
            tracer = spans.Tracer()
            traced = Pass()
            while another_round():
                plain_ops, _ = setup()
                traced_ops, _ = setup()
                rounds.append(Pass())
                run_round(workload, plain_ops, rounds[-1], traced=(tracer, traced_ops, traced),
                          corrupt=args.inject_fault and len(rounds) == 1)
                del plain_ops, traced_ops
            attempted = sum(len(p.latencies) for p in rounds) + len(traced.latencies)
            failed = sum(p.failed for p in rounds) + traced.failed
            report(f"{args.workload} seed {args.seed}, traced, {len(rounds)} rounds", traced,
                   traced.latencies, attempted, failed)
            out_in = traced.letters_out / traced.letters_in if traced.letters_in else 0.0
            metrics = spans.per_layer_metrics(tracer, len(traced.latencies),
                                              sum(p.busy_s for p in rounds), traced.busy_s, out_in)
            trace_file = ROOT / ".perfbench-trace" / f"{args.workload}.csv"
            tracer.write(trace_file)
            print(f"{len(tracer.span_name)} spans written to {trace_file.relative_to(ROOT)}")

    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
