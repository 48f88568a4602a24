"""The benchmark's workloads: seeded inputs, the timed call and its check.

Each workload's `setup(seed, workdir, tiny)` builds one round of inputs
from the seed and returns it as a list of `Op`s; the same seed gives the
same round. An op's `call` is the only timed part and is the only place
the library is called; its `check` validates the answer with `oracle`
alone. A round is made of fixed-composition blocks whose order is
shuffled within the block, and table and group shapes are fixed where
their cost varies most, so every seed's round has nearly the same mix of
op costs: run-to-run spread then comes from the machine, not from which
kinds of op happened to be drawn.

The library is always reached through module attributes at call time
(`semiforge.cli.main`, `semiforge.Shortener`, ...), so the tracer in
`spans.py` sees every call once it rebinds those names.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import itertools
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import oracle
import semiforge
import semiforge.cli
import semiforge.serialize
import semiforge.wautomata

ROOT = Path(__file__).resolve().parent.parent


@dataclass
class Op:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], bool]
    # (input letters, output letters) of an answer, for ops that shorten words
    letters: Callable[[object], tuple[int, int]] | None = None


def _matrix_json(rows) -> dict:
    return {"n": len(rows), "entries": [[str(x) for x in row] for row in rows]}


def _write_json(path: Path, obj) -> str:
    path.write_text(json.dumps(obj))
    return str(path)


def _cli(*argv):
    """Run the CLI in-process; returns (exit code, parsed stdout or None)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = semiforge.cli.main([str(a) for a in argv])
    text = out.getvalue()
    return code, (json.loads(text) if text.strip() else None)


def _shuffled_blocks(rng, blocks):
    ops = []
    for block in blocks:
        rng.shuffle(block)
        ops.extend(block)
    return ops


# ------------------------------------------------------------------ groups

# (n, generators, group order, rationally conjugated); None marks an
# infinite instance. An op costs about order x generators x a factor that
# grows with n, so these finite slots all cost about the same: latencies
# then form one cluster and the median and tail sit inside it, not on the
# edge between slots. n = 5 at order 1920 would take tens of seconds.
GROUP_BLOCK = ((3, 3, 24, False), (3, 3, 24, True), (4, 2, 16, False), (4, 2, 16, True),
               (5, 2, 12, False), (5, 2, 12, True), (4, 2, 16, True), (5, 2, 12, False),
               (None, 2, None, False), (None, 2, None, True))
GROUP_BLOCKS = 3
# Groups of one order, and conjugators, still differ in cost, so each
# finite slot draws from GROUP_SHAPES fixed generator sets with fixed
# conjugators, the same for every seed. The seed renames the coordinates
# (which moves entries but keeps their sizes) and shuffles the order.
GROUP_SHAPES = 3


def _block_generators(rng, n: int, k: int) -> list[tuple]:
    """k random signed permutations preserving one random partition of the
    coordinates into blocks of at most 3, which keeps the order small."""
    sizes: list[int] = []
    while sum(sizes) < n:
        sizes.append(rng.randint(1, min(3, n - sum(sizes))))
    coords = list(range(n))
    rng.shuffle(coords)
    blocks, i = [], 0
    for s in sizes:
        blocks.append(coords[i:i + s])
        i += s
    gens = []
    for _ in range(k):
        g: list = [None] * n
        for b in blocks:
            for src, dst in zip(b, rng.sample(b, len(b))):
                g[src] = (dst, rng.choice((1, -1)))
        gens.append(tuple(g))
    return gens


def _finite_group(shape: int, slot: int, n: int, k: int, order: int, conj: bool) -> list:
    rng = random.Random(f"groups-{shape}-{slot}-{order}")
    while True:
        gens = _block_generators(rng, n, k)
        if oracle.sp_closure_size(gens, order, with_identity=True) == order:
            break
    gens = [oracle.sp_matrix(g) for g in gens]
    if conj:
        C, Cinv = oracle.random_conjugator(rng, n)
        gens = [oracle.conjugate(g, C, Cinv) for g in gens]
    return gens


def _infinite_group(rng, n: int):
    """Two involutions whose product is a shear, in a random 2-block; the
    first also acts on the other coordinates by a random signed permutation."""
    a, b = rng.sample(range(n), 2)
    rest = [i for i in range(n) if i not in (a, b)]
    s1 = [[Fraction(0)] * n for _ in range(n)]
    s1[a][a], s1[b][b] = Fraction(-1), Fraction(1)
    for src, dst in zip(rest, rng.sample(rest, len(rest))):
        s1[src][dst] = Fraction(rng.choice((1, -1)))
    s2 = oracle.identity(n)
    s2[a][a] = Fraction(-1)
    s2[b][a] = Fraction(rng.choice((1, 2)))
    return [s1, s2]


def _check_groups(gens, order):
    def check(answer) -> bool:
        (fcode, fin), (icode, integ) = answer
        if fcode != 0 or icode != 0:
            return False
        if order is None:
            return fin["status"] == "infinite" and integ["status"] == "infinite"
        if fin != {"status": "finite", "count": order}:
            return False
        if integ["status"] != "finite" or integ["order"] != order:
            return False
        C = [[Fraction(x) for x in row] for row in integ["C"]["entries"]]
        Cinv = oracle.inverse(C)
        if Cinv is None:
            return False
        for i, g in enumerate(gens):
            conj = oracle.mat_mul(oracle.mat_mul(C, g), Cinv)
            if not oracle.is_integral(conj) or abs(oracle.det(conj)) != 1:
                return False
            reported = integ["conjugated_generators"][f"g{i}"]["entries"]
            if [[Fraction(x) for x in row] for row in reported] != conj:
                return False
        return True
    return check


def setup_groups(seed: int, workdir: Path, tiny: bool) -> list[Op]:
    rng = random.Random(seed)
    blocks = []
    for b in range(1 if tiny else GROUP_BLOCKS):
        block = []
        for slot, (n, k, order, conj) in enumerate(GROUP_BLOCK):
            if n is None:
                n = rng.choice((3, 4, 5))
                gens = _infinite_group(rng, n)
                if conj:
                    C, Cinv = oracle.random_conjugator(rng, n)
                    gens = [oracle.conjugate(g, C, Cinv) for g in gens]
            else:
                order = 8 if tiny else order
                shape = _finite_group(b % GROUP_SHAPES, slot, n, k, order, conj)
                p = oracle.sp_random(rng, range(n), range(n), n)
                gens = [oracle.rename(g, p) for g in shape]
            path = _write_json(workdir / f"group-{b}-{slot}.json", {
                "n": n, "generators": {f"g{i}": _matrix_json(g) for i, g in enumerate(gens)}})
            kind = "infinite" if order is None else f"n{n}" + ("-rational" if conj else "")
            block.append(Op(kind,
                            lambda p=path: (_cli("finiteness", p), _cli("integerize", p)),
                            _check_groups(gens, order)))
        blocks.append(block)
    return _shuffled_blocks(rng, blocks)


def corrupt_groups(answer):
    (fcode, fin), rest = answer
    return (fcode, dict(fin, count=fin.get("count", 0) + 1, status="finite")), rest


# ----------------------------------------------------------------- shorten

SHORTEN_N = 5
SHORTEN_TABLES = 6              # every other one rationally conjugated
SHORTEN_CLOSURE = (30, 60)      # inclusive band of semigroup sizes
SHORTEN_WALKS = (5, 15)         # walk lengths; a walk of length L comes with a
FREE_PER_WALK = 1.5             # free word of length 1.5 L, which costs about as much
SHORTEN_BLOCKS = 7


@dataclass(eq=False)
class _Table:
    letters: dict        # letter -> signed partial permutation
    by_row: dict         # row set -> letters leaving it
    col: dict            # letter -> column set
    cycle: list
    table: object        # MorphismTable handed to the library
    shortener: object = None


def _cycle_shape(index: int, lo: int, hi: int) -> dict:
    """Rank-3 signed partial permutations whose row and column sets form a
    cycle S0 -> S1 -> S2 -> S0 of 3-subsets, with a second letter on the
    first edge so that walks have choices. Shapes differ a lot in cost, so
    they are fixed: the same SHORTEN_TABLES shapes, and conjugators, for
    every seed. The seed renames coordinates and draws the words."""
    n = SHORTEN_N
    rng = random.Random(f"shorten-{index}-{lo}-{hi}")
    subsets = list(itertools.combinations(range(n), 3))
    while True:
        S = rng.sample(subsets, 3)
        edges = {"a": (S[0], S[1]), "b": (S[1], S[2]), "c": (S[2], S[0]), "d": (S[0], S[1])}
        letters = {a: oracle.sp_random(rng, r, c, n) for a, (r, c) in edges.items()}
        size = oracle.sp_closure_size(list(letters.values()), hi)
        if size is not None and size >= lo:
            return letters


def _cycle_table(rng, index: int, shape: dict, conj: bool) -> _Table:
    """The shape, conjugated by a fixed rational matrix when `conj`, with
    its coordinates renamed at random. Answers are checked on the shape's
    signed partial permutations, which multiply like the table's matrices."""
    n = SHORTEN_N
    mats = {a: oracle.sp_matrix(g) for a, g in shape.items()}
    if conj:
        C, Cinv = oracle.random_conjugator(random.Random(f"shorten-conj-{index}"), n)
        mats = {a: oracle.conjugate(m, C, Cinv) for a, m in mats.items()}
    p = oracle.sp_random(rng, range(n), range(n), n)
    mapping = {a: semiforge.Mat(oracle.rename(m, p)) for a, m in mats.items()}
    table = semiforge.MorphismTable(n, tuple(sorted(mapping)), mapping)
    rows = {a: frozenset(i for i, e in enumerate(g) if e is not None) for a, g in shape.items()}
    cols = {a: frozenset(e[0] for e in g if e is not None) for a, g in shape.items()}
    by_row: dict = {}
    for a in sorted(shape):
        by_row.setdefault(rows[a], []).append(a)
    return _Table(shape, by_row, cols, sorted(by_row, key=sorted), table)


def _walk(rng, t: _Table, length: int) -> tuple:
    at = rng.choice(t.cycle)
    word = []
    for _ in range(length):
        a = rng.choice(t.by_row[at])
        word.append(a)
        at = t.col[a]
    return tuple(word)


def _free_word(rng, t: _Table, length: int) -> tuple:
    alphabet = sorted(t.letters)
    while True:
        word = tuple(rng.choice(alphabet) for _ in range(length))
        if oracle.sp_rank(oracle.sp_word(t.letters, word)) < 3:
            return word


def _check_shorten(t: _Table, word):
    def check(u) -> bool:
        u = tuple(u)
        return (len(u) <= len(word) and all(a in t.letters for a in u) and
                oracle.sp_word(t.letters, u) == oracle.sp_word(t.letters, word))
    return check


def setup_shorten(seed: int, workdir: Path, tiny: bool) -> list[Op]:
    rng = random.Random(seed)
    lo, hi = (1, 60) if tiny else SHORTEN_CLOSURE
    shortest, longest = (3, 9) if tiny else SHORTEN_WALKS
    tables = [_cycle_table(rng, i, _cycle_shape(i, lo, hi), i % 2 == 1)
              for i in range(SHORTEN_TABLES)]
    for t in tables:
        # the finiteness decision and one warm-up word are set-up: the
        # timed loop measures a warm shortener
        t.shortener = semiforge.Shortener(t.table)
        t.shortener.shorten(_walk(rng, t, shortest - 1))
    blocks = []
    step = (longest - shortest) // (len(tables) - 1)
    for b in range(4 if tiny else SHORTEN_BLOCKS):
        # every block holds one walk and one free word per table, and every
        # walk length once, so any run of blocks has the same mix
        block = []
        for i, t in enumerate(tables):
            walk = shortest + step * ((b + i) % len(tables))
            suffix = "-rational" if i % 2 else ""
            for kind, w in (("walk", _walk(rng, t, walk)),
                            ("free", _free_word(rng, t, round(FREE_PER_WALK * walk)))):
                block.append(Op(kind + suffix, lambda t=t, w=w: t.shortener.shorten(w),
                                _check_shorten(t, w), lambda u, w=w: (len(w), len(u))))
        blocks.append(block)
    return _shuffled_blocks(rng, blocks)


def corrupt_shorten(u):
    return tuple(u) + ("a",) * 1000   # longer than any input word


# ------------------------------------------------------------------- sweep

SWEEP_SIZE_BUCKETS = 24


def load_sweep_script(root: Path):
    """scripts/sweep_shortener.py as a module: the sweep's table and word
    enumeration is used from there, not copied."""
    name = "sweep_shortener"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, root / "scripts" / "sweep_shortener.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


@dataclass(eq=False)
class _SweepTable:
    table: object
    ints: dict        # letter -> 2x2 integer matrix, row-major
    size: int | None  # semigroup size when at most the fixture's 60
    words: list


def _sweep_op(st: _SweepTable, closure_cap: int):
    """One table exactly as the acceptance fixture treats it."""
    table = st.table
    verdict = semiforge.decide_finiteness(table, closure_cap + 1)
    if verdict.status != "finite" or len(verdict.closure) > closure_cap:
        return verdict.status, None, []
    shortener = semiforge.Shortener(table, assume_finite=True)
    best: dict = {}
    pairs = []
    for word in st.words:
        value = table.evaluate(word)
        u = best.get(value)
        if u is None or len(u) > len(word):
            u = shortener.shorten(word)
            best[value] = u
        pairs.append((word, u))
    return "finite", len(verdict.closure), pairs


def _word_values(ints: dict, words) -> dict:
    """Values of the given words, shortest first, and of the empty word."""
    values = {(): oracle.IDENTITY2}
    for w in words:
        values[w] = oracle.mul2(values[w[:-1]], ints[w[-1]])
    return values


def _check_sweep(st: _SweepTable):
    def check(answer) -> bool:
        status, count, pairs = answer
        if st.size is None:
            return not (status == "finite" and count is not None)
        if status != "finite" or count != st.size or len(pairs) != len(st.words):
            return False
        values = _word_values(st.ints, st.words)
        for w, u in pairs:
            u = tuple(u)
            if len(u) > len(w) or u not in values or values[u] != values[w]:
                return False
        return True
    return check


def setup_sweep(seed: int, workdir: Path, tiny: bool) -> list[Op]:
    sweep = load_sweep_script(ROOT)
    config = sweep.SweepConfig()
    rng = random.Random(seed)
    words = {k: list(sweep.all_words(("a", "b")[:k], config.max_word_length)) for k in (1, 2)}
    heavy, light = [], []
    for table in sweep.enumerate_tables(config):
        ints = {a: tuple(int(Fraction(x)) for row in
                         semiforge.serialize.matrix_to_json(table.mapping[a])["entries"] for x in row)
                for a in table.alphabet}
        size = oracle.closure2_size(list(ints.values()), config.max_closure)
        st = _SweepTable(table, ints, size, words[len(table.alphabet)])
        (heavy if size is not None and len(table.alphabet) == 2 else light).append(st)
    # A two-letter finite table costs two orders of magnitude more than the
    # rest, and more the larger its semigroup. A round takes one of them
    # from each size bucket, plus a quarter as many of the rest; that
    # under-represents the rest, but puts the median latency inside the
    # finite tables' range rather than on the edge between the two kinds.
    heavy.sort(key=lambda st: st.size)
    k = 4 if tiny else SWEEP_SIZE_BUCKETS
    buckets = [heavy[q * len(heavy) // k:(q + 1) * len(heavy) // k] for q in range(k)]
    picks = [("finite-2", rng.choice(bucket)) for bucket in buckets]
    picks += [("other", st) for st in rng.sample(light, k // 4)]
    ops = [Op(kind, lambda st=st: _sweep_op(st, config.max_closure), _check_sweep(st),
              _sweep_letters)
           for kind, st in picks]
    rng.shuffle(ops)
    return ops


def corrupt_sweep(answer):
    return "finite", -1, answer[2]


def _sweep_letters(answer) -> tuple[int, int]:
    pairs = answer[2]
    return sum(len(w) for w, _ in pairs), sum(len(u) for _, u in pairs)


# ---------------------------------------------------------------- automata

WA_BASE = 3          # states of the automaton that defines the word function
WA_ORDER = 24        # order of the group the finite automata's letters generate
WA_REDUNDANT = 2     # unreachable states, and as many unobservable ones
WA_WORD = 300        # letters per evaluated word
VASS_WALK = 8        # the reachable target is this many random steps away
VASS_BUDGET = 2000   # dequeues; an unreachable target spends all of them
AUTOMATA_BLOCKS = 20


def _wa_base(rng, infinite: bool):
    """(letter matrices, alpha, eta) over the integers on WA_BASE states.

    Signed permutations give a finite transition monoid, hence finitely
    many values. A shear a with alpha = e0 and eta[1] != 0 gives the
    values alpha*a^m*eta = eta[0] + m*eta[1], infinitely many.
    """
    k = WA_BASE
    while True:
        # the letters' group order drives the cost of deciding finiteness;
        # holding it fixed keeps the finite ops one cluster of latencies
        perms = [oracle.sp_random(rng, range(k), range(k), k) for _ in "ab"]
        if oracle.sp_closure_size(perms, WA_ORDER) == WA_ORDER:
            break
    mats = {a: oracle.sp_matrix(g) for a, g in zip("ab", perms)}
    eta = [Fraction(rng.randint(-2, 2)) for _ in range(k)]
    if infinite:
        shear = oracle.identity(k)
        shear[0][1] = Fraction(1)
        mats["a"] = shear
        alpha = [Fraction(int(i == 0)) for i in range(k)]
        eta[1] = Fraction(rng.choice((1, -1, 2)))
    else:
        alpha = [Fraction(rng.randint(-2, 2)) for _ in range(k)]
        alpha[rng.randrange(k)] = Fraction(1)
        eta[rng.randrange(k)] = Fraction(1)
    return mats, alpha, eta


def _wa_redundant(rng, base):
    """The same word function on WA_BASE + 2*WA_REDUNDANT states in a random
    rational basis. States U are never reached from alpha; states D are
    reached but only lead to D, where eta is zero. Minimization must drop
    both."""
    mats, alpha, eta = base
    k, r = WA_BASE, WA_REDUNDANT
    N = k + 2 * r
    U, D = range(k, k + r), range(k + r, N)

    def small():
        return Fraction(rng.randint(-1, 1))

    big = {}
    for a, B in mats.items():
        M = [[Fraction(0)] * N for _ in range(N)]
        for i in range(k):
            M[i][:k] = B[i]
            for j in D:
                M[i][j] = small()
        for i in U:
            M[i] = [small() for _ in range(N)]
        for i in D:
            for j in D:
                M[i][j] = small()
        big[a] = M
    alpha_big = list(alpha) + [Fraction(0)] * (2 * r)
    eta_big = list(eta) + [small() for _ in U] + [Fraction(0)] * r
    C, Cinv = oracle.random_conjugator(rng, N)
    big = {a: oracle.conjugate(M, C, Cinv) for a, M in big.items()}
    alpha_big = oracle.mat_mul([alpha_big], C)[0]
    eta_big = [row[0] for row in oracle.mat_mul(Cinv, [[x] for x in eta_big])]
    return big, alpha_big, eta_big


def _automaton_json(wa) -> dict:
    mats, alpha, eta = wa
    return {"n": len(alpha), "alphabet": sorted(mats),
            "transitions": {a: _matrix_json(M) for a, M in mats.items()},
            "alpha": [str(x) for x in alpha], "eta": [str(x) for x in eta]}


def _automaton(wa):
    mats, alpha, eta = wa
    table = semiforge.MorphismTable(len(alpha), tuple(sorted(mats)),
                                    {a: semiforge.Mat(M) for a, M in mats.items()})
    return semiforge.WeightedAutomaton(table, tuple(alpha), tuple(eta))


def _base_value(base, word) -> Fraction:
    mats, alpha, eta = base
    v = alpha
    for a in word:
        v = oracle.mat_mul([v], mats[a])[0]
    return sum((x * y for x, y in zip(v, eta)), Fraction(0))


def _vass(rng, d: int = 2):
    """States p and q with two transitions out of each, one of them a pure
    translation so the reachable set is infinite; state z has no incoming
    transition, so no configuration in z is ever reachable from p."""
    def perm():
        return [[int(x) for x in row] for row in
                oracle.sp_matrix(oracle.sp_random(rng, range(d), range(d), d))]

    def ident():
        return [[int(i == j) for j in range(d)] for i in range(d)]

    def offset(nonzero=False):
        while True:
            b = [rng.randint(-2, 2) for _ in range(d)]
            if any(b) or not nonzero:
                return b

    return [("p", ident(), offset(True), "p"), ("p", perm(), offset(), "q"),
            ("q", perm(), offset(), "q"), ("q", ident(), offset(True), "p"),
            ("z", ident(), [0] * d, "p")]


def _vass_apply(t, v):
    _, A, b, _ = t
    return tuple(sum(a * x for a, x in zip(row, v)) + c for row, c in zip(A, b))


def _config(state, v) -> str:
    return f"{state}:" + ",".join(str(x) for x in v)


def _check_reach(transitions, source, target, reachable):
    def check(answer) -> bool:
        code, out = answer
        if code != 0:
            return False
        if not reachable:
            return out == {"status": "not_within_budget"}
        if out["status"] != "reached" or len(out["path"]) > VASS_WALK:
            return False
        state, v = source
        for i in out["path"]:
            t = transitions[i]
            if t[0] != state:
                return False
            state, v = t[3], _vass_apply(t, v)
        return (state, v) == target
    return check


def setup_automata(seed: int, workdir: Path, tiny: bool) -> list[Op]:
    rng = random.Random(seed)
    blocks = []
    for b in range(1 if tiny else AUTOMATA_BLOCKS):
        block = []
        for infinite in (False, True):
            expected = "infinite" if infinite else "finite"
            base = _wa_base(rng, infinite)
            path = _write_json(workdir / f"wa-{b}-{expected}.json",
                               _automaton_json(_wa_redundant(rng, base)))
            block.append(Op(f"wa-{expected}", lambda p=path: _cli("wa-finite", p),
                            lambda ans, e=expected: ans[0] == 0 and ans[1]["status"] == e))
            base = _wa_base(rng, infinite)
            A = _automaton(_wa_redundant(rng, base))
            word = tuple(rng.choice("ab") for _ in range(30 if tiny else WA_WORD))
            block.append(Op("evaluate", lambda A=A, w=word: semiforge.wautomata.evaluate(A, w),
                            lambda value, v=_base_value(base, word): value == v))
        transitions = _vass(rng)
        path = _write_json(workdir / f"vass-{b}.json", {
            "d": 2, "states": ["p", "q", "z"],
            "transitions": [{"from": s, "A": A, "b": bb, "to": t} for s, A, bb, t in transitions]})
        source = ("p", tuple(rng.randint(-3, 3) for _ in range(2)))
        state, v = source
        for _ in range(VASS_WALK):
            t = rng.choice([t for t in transitions if t[0] == state])
            state, v = t[3], _vass_apply(t, v)
        budget = 200 if tiny else VASS_BUDGET
        for target, reachable in (((state, v), True), (("z", source[1]), False)):
            block.append(Op("reach" if reachable else "unreachable",
                            lambda p=path, s=source, t=target: _cli(
                                "vass-reach", p, "--from", _config(*s), "--to", _config(*t),
                                "--budget", budget),
                            _check_reach(transitions, source, target, reachable)))
        blocks.append(block)
    return _shuffled_blocks(rng, blocks)


def corrupt_automata(answer):
    if isinstance(answer, Fraction):
        return answer + 1
    code, out = answer
    return code, dict(out, status="corrupted")


@dataclass
class Workload:
    setup: Callable[[int, Path, bool], list[Op]]
    corrupt: Callable[[object], object]


WORKLOADS = {
    "groups": Workload(setup_groups, corrupt_groups),
    "shorten": Workload(setup_shorten, corrupt_shorten),
    "sweep": Workload(setup_sweep, corrupt_sweep),
    "automata": Workload(setup_automata, corrupt_automata),
}
