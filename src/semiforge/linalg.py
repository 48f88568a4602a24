"""Exact linear algebra over Q.

Row-vector convention throughout the package: vectors are rows, a matrix A
acts on the right (x -> x*A), the image of A is its row space and the
kernel is the left null space {x : x*A = 0}.

A matrix is stored as integer numerators over one positive common
denominator, in lowest terms, so products and comparisons are integer
work. Elimination is fraction-free (Bareiss 1968; the reduced form is
the fraction-free Gauss-Jordan variant): every division is exact, and
the rational result is formed once at the end.

`Mat(...)` and the file readers in `serialize` share one entry grammar,
`_rational` (an int, or "p" or "p/q" in ASCII digits), and one constructor
from the (p, q) pairs it returns, `_over_lcm`, so construction builds no
`Fraction`; a zero denominator is a `ValueError` in `Mat` and a parse
error (exit 1) in a file. The one writer, `_rational_text`, writes that
grammar for `repr`, JSON and DOT; no library path reads `Mat.data`.

Four callers run the product kernel `_product(r, k, c)` for their
shape: `Mat.__mul__` when both operands are integral, the VASS steps, a
weighted automaton's forward space (numerator rows, whose scale a span
ignores) and `MorphismTable.evaluate`, the one fold of a word's
numerators (weighted automata evaluate through it), for each integral
letter. A rational product, in `Mat.__mul__` or a fold step on a letter
whose denominator is not 1, runs the lowest-terms kernel `_reduced(r, k,
c)` instead: it keeps the same written-out entries in locals, takes their
gcd with the product of the denominators and divides exactly, so the
pair leaves the kernel in lowest terms. Every other result (sums,
scalings, `stack`, `rref`, `inverse`) is brought to lowest terms by
`_mat`.
Up to _UNROLL_BUDGET = 256 scalar multiplications (square n <= 6, a row
times an n x n matrix up to n = 16) both kernels are compiled once per
process from source with every entry written out. Building a product
kernel costs a fresh process 0.1-0.8 ms (2 x 2 x 2 to 5 x 7 x 7), a
lowest-terms one 0.2-1.1 ms, and a kernel pays for itself after
40-150 products of its shape; a 2 x 2 kernel takes 0.16 us where a loop
of sum(map(mul, ...)) per entry takes 2.3 us (CPython 3.11 on a 2-vCPU
Xeon). Larger shapes keep that loop, the lowest-terms kernel with one gcd
after it: the source grows as r * k * c, and whether its compile pays
off past the budget has not been measured end to end. The torsion
test's characteristic polynomial (`semigroup._charpoly`) is compiled under
the same budget, for each n whose square product kernel is: Berkowitz's
recurrence written out, built in 0.1-1.2 ms at n = 1-6, takes 2.5 us at
n = 5 where its loop takes 27 us. All three kernels are built by
`_compiled` from integer indices alone.
"""

from __future__ import annotations

import re
import reprlib
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import count
from math import gcd, lcm
from operator import mul
from typing import Iterable


class LinAlgError(ValueError):
    pass


class DimensionMismatch(LinAlgError):
    pass


class NotInvertible(LinAlgError):
    pass


# a rational string, "p/q" or "p", in ASCII digits with nothing around it;
# at most 4300 digits each, Python's default int <-> str limit
_FRACTION_RE = re.compile(r"(-?[0-9]{1,4300})(?:/([0-9]{1,4300}))?")


def _rational(x) -> tuple[int, int]:
    """(p, q) with q > 0, not brought to lowest terms, for an int that is
    not a bool or a rational string "p/q" or "p"; a malformed string or a
    zero denominator is a ValueError, any other type a TypeError."""
    if type(x) is int:
        return x, 1
    if not isinstance(x, str):
        raise TypeError(f"expected a rational string, got {reprlib.repr(x)}")
    m = _FRACTION_RE.fullmatch(x)
    if not m:
        raise ValueError(f"malformed rational {reprlib.repr(x)}")
    p, q = m.groups()
    q = int(q) if q is not None else 1
    if not q:
        raise ValueError(f"zero denominator in {reprlib.repr(x)}")
    return int(p), q


def _rational_text(x: int, den: int) -> str:
    """x/den, den > 0, in lowest terms: "p/q", or "p" when q is 1."""
    g = gcd(x, den)
    return str(x // g) if g == den else f"{x // g}/{den // g}"


def _mat(rows: int, cols: int, num: tuple, den: int) -> "Mat":
    """A Mat from row-major numerators over a nonzero denominator; brings
    the pair to lowest terms with a positive denominator."""
    if den < 0:
        num = tuple(-x for x in num)
        den = -den
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = tuple([x // g for x in num])
            den //= g
    # `_lowest`'s body, written out: the call costs about 35 ns, 5% of a
    # 2 x 2 integral product
    m = object.__new__(Mat)
    m.rows = rows
    m.cols = cols
    m.num = num
    m.den = den
    m._hash = None
    return m


def _lowest(rows: int, cols: int, num: tuple, den: int) -> "Mat":
    """A Mat from row-major numerators over a positive denominator that are
    already in lowest terms together."""
    m = object.__new__(Mat)
    m.rows = rows
    m.cols = cols
    m.num = num
    m.den = den
    m._hash = None
    return m


def _over_lcm(rows: int, cols: int, pairs: list) -> "Mat":
    """The rows x cols matrix of row-major (p, q) pairs, q > 0, over the lcm
    of the q."""
    den = lcm(*(q for _, q in pairs))
    return _mat(rows, cols, tuple(p * (den // q) for p, q in pairs), den)


# The most scalar multiplications (r * k * c) for which a product shape
# gets compiled code: the benchmark's largest product (5 x 7 x 7 = 245, on
# automata) rounded up. The lowest-terms product kernel follows it, and an
# n x n characteristic polynomial is compiled when n^3 is within it too,
# so a new budget moves all three kernels. A written-out 60 x 60 product
# took 0.74 s and 236 MB of peak RSS to compile (CPython 3.11, 2-vCPU
# Xeon).
_UNROLL_BUDGET = 256


def _compiled(filename: str, name: str, lines: list[str]):
    """The function `name` defined by `lines`, a def line and its body one
    statement a line, compiled under `filename`; the body sees `gcd`."""
    namespace = {"gcd": gcd}
    exec(compile("\n    ".join(lines), filename, "exec"), namespace)
    return namespace[name]


def _unrolled(r: int, k: int, c: int) -> tuple[list[str], list[str]]:
    """For an r x k times k x c product, the lines that unpack the operands
    a and b into locals a0, a1, ... and b0, b1, ..., and each entry of the
    product, row-major, as a sum of products of those locals."""
    unpack = ["".join(f"a{x}," for x in range(r * k)) + " = a",
              "".join(f"b{x}," for x in range(k * c)) + " = b"]
    entries = ["+".join(f"a{i * k + t}*b{t * c + j}" for t in range(k))
               for i in range(r) for j in range(c)]
    return unpack, entries


@cache
def _product(r: int, k: int, c: int):
    """The kernel that multiplies an r x k by a k x c matrix, given and
    returning row-major numerators; past the budget, or with a zero
    dimension, the generic loop. The compiled source is built from integer
    indices alone."""
    if not k:
        return lambda a, b: (0,) * (r * c)
    if not r or not c or r * k * c > _UNROLL_BUDGET:
        def product(a, b):
            columns = [b[j::c] for j in range(c)]
            return tuple([sum(map(mul, a[i:i + k], col))
                          for i in range(0, len(a), k) for col in columns])
        return product
    unpack, entries = _unrolled(r, k, c)
    return _compiled(f"<product {r}x{k}x{c}>", "product", [
        "def product(a, b):", *unpack, "return (" + "".join(f"{e}," for e in entries) + ")"])


@cache
def _reduced(r: int, k: int, c: int):
    """The kernel that multiplies an r x k by a k x c matrix given as
    row-major numerators a and b and d, the product of their positive
    denominators, and returns the product's numerators and denominator in
    lowest terms; d = 1 passes through. Compiled as `_product` is, with
    each entry kept in a local x0, x1, ... for one gcd with d; past the
    budget, or with a zero dimension, `_product` and then that gcd."""
    if not 0 < r * k * c <= _UNROLL_BUDGET:
        times = _product(r, k, c)

        def reduced(a, b, d):
            num = times(a, b)
            g = gcd(d, *num)
            if g == 1:
                return num, d
            return tuple([x // g for x in num]), d // g
        return reduced
    unpack, entries = _unrolled(r, k, c)
    xs = [f"x{i}" for i in range(r * c)]
    return _compiled(f"<reduced {r}x{k}x{c}>", "reduced", [
        "def reduced(a, b, d):", *unpack, *(f"{x} = {e}" for x, e in zip(xs, entries)),
        "g = gcd(d, " + ", ".join(xs) + ")",
        "if g == 1:",
        "    return (" + "".join(f"{x}," for x in xs) + "), d",
        "return (" + "".join(f"{x}//g," for x in xs) + "), d//g"])


class Mat:
    """Immutable dense rational matrix. Hashable; arithmetic is exact.

    `num` holds the row-major integer numerators and `den` their common
    positive denominator, with gcd(den, *num) == 1 (so den == 1 exactly
    for integral matrices). `data` is the same matrix as rows of
    Fractions, rebuilt on each read: it is for callers and tests; no
    library path reads it.

    Zero-row and zero-column matrices are allowed; pass `cols` explicitly
    when there are no rows.
    """

    __slots__ = ("rows", "cols", "num", "den", "_hash")

    def __init__(self, data: Iterable[Iterable], cols: int | None = None):
        grid = [tuple(row) for row in data]
        if grid:
            width = len(grid[0])
            if any(len(r) != width for r in grid):
                raise DimensionMismatch("ragged rows")
            if cols is not None and cols != width:
                raise DimensionMismatch(f"declared {cols} columns, rows have {width}")
            cols = width
        elif cols is None:
            raise DimensionMismatch("a matrix with no rows needs an explicit column count")
        flat = [x for r in grid for x in r]
        if all(type(x) is int for x in flat):
            num, den = tuple(flat), 1
        else:
            pairs = []
            for x in flat:
                if isinstance(x, bool) or not isinstance(x, (int, Fraction, str)):
                    raise TypeError(f"entry {reprlib.repr(x)}: pass an int, a Fraction or a rational string")
                pairs.append(_rational(x) if isinstance(x, str) else (x.numerator, x.denominator))
            m = _over_lcm(len(grid), cols, pairs)
            num, den = m.num, m.den
        self.rows = len(grid)
        self.cols = cols
        self.num = num
        self.den = den
        self._hash = None

    @classmethod
    def identity(cls, n: int) -> "Mat":
        return _mat(n, n, tuple(int(i == j) for i in range(n) for j in range(n)), 1)

    @property
    def data(self) -> tuple:
        den, c = self.den, self.cols
        flat = [Fraction(x, den) for x in self.num]
        return tuple(tuple(flat[i * c:(i + 1) * c]) for i in range(self.rows))

    def int_rows(self) -> list[list[int]]:
        """Rows of numerators (the matrix times its denominator), as fresh lists."""
        num, c = self.num, self.cols
        return [list(num[i * c:(i + 1) * c]) for i in range(self.rows)]

    def transpose(self) -> "Mat":
        num, c = self.num, self.cols
        return _mat(c, self.rows, tuple(x for j in range(c) for x in num[j::c]), self.den)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_integral(self) -> bool:
        return self.den == 1

    def __mul__(self, other):
        if isinstance(other, Mat):
            k = self.cols
            if k != other.rows:
                raise DimensionMismatch(f"{self.rows}x{self.cols} times {other.rows}x{other.cols}")
            r, c = self.rows, other.cols
            d = self.den * other.den
            if d != 1:
                num, d = _reduced(r, k, c)(self.num, other.num, d)
                return _lowest(r, c, num, d)
            return _mat(r, c, _product(r, k, c)(self.num, other.num), 1)
        return self.__rmul__(other)

    def __rmul__(self, other):
        # a scalar is an int or a Fraction: a string, a float or a bool is refused
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            p, q = other.numerator, other.denominator
            return _mat(self.rows, self.cols, tuple(p * x for x in self.num), self.den * q)
        return NotImplemented

    def __add__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatch("matrix addition shape mismatch")
        da, db = self.den, other.den
        num = tuple(x * db + y * da for x, y in zip(self.num, other.num))
        return _mat(self.rows, self.cols, num, da * db)

    def __sub__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return self + (-1) * other

    def __eq__(self, other):
        return (isinstance(other, Mat) and self.rows == other.rows and self.cols == other.cols
                and self.den == other.den and self.num == other.num)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.rows, self.cols, self.den, self.num))
        return self._hash

    def __repr__(self):
        return f"Mat({[[_rational_text(x, self.den) for x in r] for r in self.int_rows()]})"


def stack(A: Mat, B: Mat) -> Mat:
    if A.cols != B.cols:
        raise DimensionMismatch("stack needs equal column counts")
    d = lcm(A.den, B.den)
    fa, fb = d // A.den, d // B.den
    return _mat(A.rows + B.rows, A.cols,
                tuple(fa * x for x in A.num) + tuple(fb * x for x in B.num), d)


def _eliminate(m: list[list[int]], ncols: int, reduced: bool) -> tuple[int, list[int], int]:
    """Fraction-free elimination of the integer rows `m`, in place.

    The pivot is the first nonzero entry at or below the current row. After
    k pivots, each entry is a minor of the input of order k (pivot rows) or
    k + 1 (the rows below), by Sylvester's identity, so each division by
    the previous pivot is exact. With `reduced`, rows above the pivot are
    cleared too and the pivot rows end as d * RREF, where d is the last
    pivot. Returns (d, pivot columns, sign of the row permutation).
    """
    nrows = len(m)
    d = 1
    sign = 1
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if m[i][c]), None)
        if pr is None:
            continue
        if pr != r:
            m[r], m[pr] = m[pr], m[r]
            sign = -sign
        prow = m[r]
        p = prow[c]
        for i in range(0 if reduced else r + 1, nrows):
            if i == r:
                continue
            row = m[i]
            f = row[c]
            if f:
                m[i] = [(p * x - f * y) // d for x, y in zip(row, prow)]
            elif p != d and any(row):
                m[i] = [p * x // d for x in row]
        d = p
        pivots.append(c)
        r += 1
    return d, pivots, sign


@dataclass(frozen=True)
class RrefResult:
    matrix: Mat
    pivots: tuple[int, ...]
    rank: int


def rref(A: Mat) -> RrefResult:
    """Reduced row echelon form: unit pivots, zeros above and below.

    Eliminates on the numerators of A, since the denominator does not
    change the reduced form, and divides by the last pivot once, at the end.
    """
    m = A.int_rows()
    d, pivots, _ = _eliminate(m, A.cols, reduced=True)
    return RrefResult(_mat(A.rows, A.cols, tuple(x for r in m for x in r), d),
                      tuple(pivots), len(pivots))


def rank(A: Mat) -> int:
    """The pivot count of the echelon form; the reduced form is not needed."""
    return len(_eliminate(A.int_rows(), A.cols, reduced=False)[1])


class Subspace:
    """A subspace of Q^n, held as its unique RREF basis (no zero rows).

    Equality and hashing compare the canonical basis, so subspaces behave
    as exact values.
    """

    __slots__ = ("ambient_dim", "basis", "pivots", "_hash")

    def __init__(self, ambient_dim: int, basis: Mat, pivots: tuple[int, ...]):
        self.ambient_dim = ambient_dim
        self.basis = basis
        self.pivots = pivots
        self._hash = None

    @property
    def dim(self) -> int:
        return self.basis.rows

    def coordinates(self, M: Mat) -> Mat:
        """The matrix C with C * basis == M: the coordinates of the rows of M
        in the unit-pivot RREF basis, which are M's pivot columns. Raises
        LinAlgError if a row of M is outside."""
        if M.cols != self.ambient_dim:
            raise DimensionMismatch("vector has wrong length")
        C = _pivot_read(self, M)
        if C * self.basis != M:
            raise LinAlgError("vector not in subspace")
        return C

    def __eq__(self, other):
        return isinstance(other, Subspace) and self.basis == other.basis

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.basis)
        return self._hash

    def __repr__(self):
        return f"Subspace(dim={self.dim} of Q^{self.ambient_dim})"


def _pivot_read(S: Subspace, M: Mat) -> Mat:
    """M's columns at S's pivots: the coordinates of M's rows in S's
    unit-pivot RREF basis when they lie in S, which is not checked."""
    n = S.ambient_dim
    return _mat(M.rows, S.dim, tuple(M.num[i * n + p] for i in range(M.rows) for p in S.pivots),
                M.den)


def image(A: Mat) -> Subspace:
    """Row space of A, i.e. {x*A : x in Q^n} under the row convention."""
    res = rref(A)
    R = res.matrix
    basis = _mat(res.rank, A.cols, R.num[:res.rank * A.cols], R.den)
    return Subspace(A.cols, basis, res.pivots)


def _with_identity(A: Mat) -> list[list[int]]:
    """The integer rows of [N | I] for A = N / den. Row operations keep each
    row of the result equal to (x*N | x) for the combination x it records."""
    rows = A.int_rows()
    for i, r in enumerate(rows):
        r.extend(int(i == j) for j in range(A.rows))
    return rows


def kernel(A: Mat) -> Subspace:
    """Left kernel {x : x*A = 0}; a subspace of Q^rows. Eliminating [N | I]
    on the columns of N zeroes the N parts of the rows below the pivots;
    their I parts are independent and span the kernel."""
    rows = _with_identity(A)
    r = len(_eliminate(rows, A.cols, reduced=False)[1])
    return image(_mat(A.rows - r, A.rows, tuple(x for row in rows[r:] for x in row[A.cols:]), 1))


def inverse(A: Mat) -> Mat:
    if not A.is_square():
        raise DimensionMismatch("inverse needs a square matrix")
    n = A.rows
    # A = N / den, and the reduced elimination of [N | I] leaves
    # d * [I | inverse(N)], so inverse(A) = den * (right half) / d
    rows = _with_identity(A)
    d, pivots, _ = _eliminate(rows, 2 * n, reduced=True)
    if pivots[:n] != list(range(n)):
        raise NotInvertible("matrix is singular")
    return _mat(n, n, tuple(A.den * x for r in rows for x in r[n:]), d)


def det(A: Mat) -> Fraction:
    if not A.is_square():
        raise DimensionMismatch("determinant needs a square matrix")
    n = A.rows
    m = A.int_rows()
    d, pivots, sign = _eliminate(m, n, reduced=False)
    if len(pivots) < n:
        return Fraction(0)
    # the last Bareiss pivot is det(N), and det(A) = det(N) / den^n
    return Fraction(sign * d, A.den ** n)


def minimal_polynomial(A: Mat) -> tuple:
    """Monic minimal polynomial of A, constant term first.

    With A = N / den for the integer matrix N, the flattened powers N^0,
    N^1, ... are stacked as rows until the stack has a nonzero left kernel
    vector c: then sum c_j N^j = 0, that is sum c_j den^j A^j = 0. The 0x0
    matrix gets the unit polynomial 1.
    """
    if not A.is_square():
        raise DimensionMismatch("minimal polynomial needs a square matrix")
    n = A.rows
    N, power, powers = _mat(n, n, A.num, 1), Mat.identity(n), ()
    for k in count():
        powers += power.num
        K = kernel(_mat(k + 1, n * n, powers, 1))
        if K.dim:
            c = K.basis.num
            return tuple(Fraction(x * A.den ** j, c[k] * A.den ** k) for j, x in enumerate(c))
        power = power * N
