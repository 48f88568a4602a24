"""Exact linear algebra over Q.

Row-vector convention throughout the package: vectors are rows, a matrix A
acts on the right (x -> x*A), the image of A is its row space and the
kernel is the left null space {x : x*A = 0}.

A matrix is stored as integer numerators over one positive common
denominator, in lowest terms, so products and comparisons are integer
work. Elimination is fraction-free (Bareiss 1968; the reduced form is
the fraction-free Gauss-Jordan variant): every division is exact, and
the rational result is formed once at the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence


class LinAlgError(ValueError):
    pass


class DimensionMismatch(LinAlgError):
    pass


class NotInvertible(LinAlgError):
    pass


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise TypeError(f"float entry {x!r}: pass an int, a Fraction or a rational string")
    return Fraction(x)


def _mat(rows: int, cols: int, num: tuple, den: int) -> "Mat":
    """A Mat from row-major numerators over a nonzero denominator; brings
    the pair to lowest terms with a positive denominator."""
    if den < 0:
        num = tuple(-x for x in num)
        den = -den
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = tuple(x // g for x in num)
            den //= g
    m = object.__new__(Mat)
    m.rows = rows
    m.cols = cols
    m.num = num
    m.den = den
    m._hash = None
    return m


class Mat:
    """Immutable dense rational matrix. Hashable; arithmetic is exact.

    `num` holds the row-major integer numerators and `den` their common
    positive denominator, with gcd(den, *num) == 1 (so den == 1 exactly
    for integral matrices). `data` is the same matrix as rows of
    Fractions, rebuilt on each read: it is for output and tests, and
    nothing in the package computes on it.

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
            fracs = [_frac(x) for x in flat]
            # the lcm of lowest-terms denominators leaves the pair in lowest terms
            den = lcm(*(x.denominator for x in fracs))
            num = tuple(x.numerator * (den // x.denominator) for x in fracs)
        self.rows = len(grid)
        self.cols = cols
        self.num = num
        self.den = den
        self._hash = None

    @classmethod
    def identity(cls, n: int) -> "Mat":
        return _mat(n, n, tuple(int(i == j) for i in range(n) for j in range(n)), 1)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Mat":
        return _mat(rows, cols, (0,) * (rows * cols), 1)

    @classmethod
    def row_vector(cls, entries: Sequence) -> "Mat":
        entries = tuple(entries)
        return cls((entries,), cols=len(entries))

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

    def is_zero(self) -> bool:
        return not any(self.num)

    def __mul__(self, other):
        if isinstance(other, Mat):
            k = self.cols
            if k != other.rows:
                raise DimensionMismatch(f"{self.rows}x{self.cols} times {other.rows}x{other.cols}")
            c = other.cols
            a, b = self.num, other.num
            if k:
                columns = [b[j::c] for j in range(c)]
                num = tuple([sum(map(mul, a[i:i + k], col))
                             for i in range(0, len(a), k) for col in columns])
            else:
                num = (0,) * (self.rows * c)
            return _mat(self.rows, c, num, self.den * other.den)
        return self._scaled(_frac(other))

    def __rmul__(self, other):
        return self._scaled(_frac(other))

    def _scaled(self, s: Fraction) -> "Mat":
        p = s.numerator
        return _mat(self.rows, self.cols, tuple(p * x for x in self.num),
                    self.den * s.denominator if p else 1)

    def __add__(self, other: "Mat") -> "Mat":
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatch("matrix addition shape mismatch")
        da, db = self.den, other.den
        if da == db:
            num = tuple(x + y for x, y in zip(self.num, other.num))
        else:
            num = tuple(x * db + y * da for x, y in zip(self.num, other.num))
        return _mat(self.rows, self.cols, num, da * db if da != db else da)

    def __sub__(self, other: "Mat") -> "Mat":
        return self + (-1) * other

    def __eq__(self, other):
        return (isinstance(other, Mat) and self.rows == other.rows and self.cols == other.cols
                and self.den == other.den and self.num == other.num)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.rows, self.cols, self.den, self.num))
        return self._hash

    def __repr__(self):
        return f"Mat({[[str(x) for x in r] for r in self.data]})"


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
                if d == 1:
                    m[i] = [p * x - f * y for x, y in zip(row, prow)]
                else:
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

    @classmethod
    def from_rows(cls, ambient_dim: int, rows: Iterable[Iterable]) -> "Subspace":
        return image(Mat(rows, cols=ambient_dim))

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls.from_rows(ambient_dim, ())

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return image(Mat.identity(ambient_dim))

    @property
    def dim(self) -> int:
        return self.basis.rows

    def coordinates(self, M: Mat) -> Mat:
        """The matrix C with C * basis == M: the coordinates of the rows of M
        in the RREF basis. Raises LinAlgError if a row of M is outside."""
        C = _pivot_read(self, M)
        if C is None:
            raise LinAlgError("vector not in subspace")
        return C

    def contains(self, v: Sequence) -> bool:
        return _pivot_read(self, Mat.row_vector(v)) is not None

    def __eq__(self, other):
        return (isinstance(other, Subspace)
                and self.ambient_dim == other.ambient_dim
                and self.basis == other.basis)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ambient_dim, self.basis))
        return self._hash

    def __repr__(self):
        return f"Subspace(dim={self.dim} of Q^{self.ambient_dim})"


def _pivot_read(space: Subspace, M: Mat) -> Mat | None:
    """The pivot columns of M, which are the coordinates of its rows if they
    lie in `space` (its RREF basis has unit pivots, zeros around them);
    None when one product shows that some row does not."""
    n = space.ambient_dim
    if M.cols != n:
        raise DimensionMismatch("vector has wrong length")
    C = _mat(M.rows, space.dim,
             tuple(M.num[i * n + p] for i in range(M.rows) for p in space.pivots), M.den)
    return C if C * space.basis == M else None


def image(A: Mat) -> Subspace:
    """Row space of A, i.e. {x*A : x in Q^n} under the row convention."""
    res = rref(A)
    R = res.matrix
    basis = _mat(res.rank, A.cols, R.num[:res.rank * A.cols], R.den)
    return Subspace(A.cols, basis, res.pivots)


def kernel(A: Mat) -> Subspace:
    """Left kernel {x : x*A = 0}; a subspace of Q^rows."""
    n = A.rows
    res = rref(A.transpose())
    R, d = res.matrix.num, res.matrix.den
    # each free column f of rref(A^T) = R / d gives the kernel vector with d
    # at f and -R[i][f] at pivot p_i (the usual basis vector, scaled by d)
    free = sorted(set(range(n)) - set(res.pivots))
    rows = []
    for f in free:
        v = [0] * n
        v[f] = d
        for i, p in enumerate(res.pivots):
            v[p] = -R[i * n + f]
        rows.extend(v)
    return image(_mat(len(free), n, tuple(rows), 1))


def inverse(A: Mat) -> Mat:
    if not A.is_square():
        raise DimensionMismatch("inverse needs a square matrix")
    n = A.rows
    # A = N / den, and the reduced elimination of [N | I] leaves
    # d * [I | inverse(N)], so inverse(A) = den * (right half) / d
    rows = A.int_rows()
    for i, r in enumerate(rows):
        r.extend(int(i == j) for j in range(n))
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
    N^1, ... are reduced against each other, fraction-free, while each
    reduced row keeps its combination of the powers. The first power that
    reduces to zero gives the dependence sum c_j N^j = 0, that is
    sum c_j den^j A^j = 0.

    The 0x0 matrix gets the unit polynomial 1.
    """
    if not A.is_square():
        raise DimensionMismatch("minimal polynomial needs a square matrix")
    n = A.rows
    if n == 0:
        return (Fraction(1),)
    N = _mat(n, n, A.num, 1)
    reduced = []  # (pivot, row, combination) for the independent powers so far
    power = Mat.identity(n)
    for k in range(n + 1):
        row = list(power.num)
        comb = [int(j == k) for j in range(n + 1)]
        for p, prow, pcomb in reduced:
            f = row[p]
            if f:
                g = prow[p]
                row = [g * x - f * y for x, y in zip(row, prow)]
                comb = [g * x - f * y for x, y in zip(comb, pcomb)]
        if not any(row):
            lead = comb[k] * A.den ** k
            return tuple(Fraction(c * A.den ** j, lead) for j, c in enumerate(comb[:k + 1]))
        g = gcd(*row, *comb)
        reduced.append((next(j for j, x in enumerate(row) if x),
                        [x // g for x in row], [x // g for x in comb]))
        power = power * N
    raise AssertionError("minimal polynomial of degree <= n must exist")
