"""Independent exact arithmetic for checking the library's answers.

Nothing here imports semiforge. Matrices are lists of Fraction rows under
the library's row convention (x -> x*A). Signed partial permutations are
tuples with one entry per row: None for a zero row, or (column, sign) for
the row's single nonzero entry. They compose exactly like the matrices
they stand for, so a product of many of them is checked in integer steps.
"""

from __future__ import annotations

from fractions import Fraction


def identity(n: int) -> list[list[Fraction]]:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def mat_mul(A, B) -> list[list[Fraction]]:
    cols = list(zip(*B))
    return [[sum((a * b for a, b in zip(row, col)), Fraction(0)) for col in cols] for row in A]


def inverse(A) -> list[list[Fraction]] | None:
    """Gauss-Jordan inverse, or None when A is singular."""
    n = len(A)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(A)]
    for c in range(n):
        pr = next((i for i in range(c, n) if m[i][c]), None)
        if pr is None:
            return None
        m[c], m[pr] = m[pr], m[c]
        pv = m[c][c]
        m[c] = [x / pv for x in m[c]]
        for i in range(n):
            if i != c and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return [row[n:] for row in m]


def det(A) -> Fraction:
    n = len(A)
    m = [[Fraction(x) for x in row] for row in A]
    result = Fraction(1)
    for c in range(n):
        pr = next((i for i in range(c, n) if m[i][c]), None)
        if pr is None:
            return Fraction(0)
        if pr != c:
            m[c], m[pr] = m[pr], m[c]
            result = -result
        result *= m[c][c]
        for i in range(c + 1, n):
            if m[i][c]:
                f = m[i][c] / m[c][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return result


def is_integral(A) -> bool:
    return all(Fraction(x).denominator == 1 for row in A for x in row)


def conjugate(g, C, Cinv):
    """C^-1 * g * C, so that C * result * C^-1 == g."""
    return mat_mul(mat_mul(Cinv, g), C)


def random_conjugator(rng, n: int):
    """A random rational matrix of determinant 1, as a product of unit lower
    and unit upper triangular factors, and its inverse. Fixing the
    determinant keeps entry sizes, and so the cost of exact arithmetic,
    alike from one seed to the next."""
    entries = (Fraction(0), Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2),
               Fraction(-1, 2), Fraction(1, 3), Fraction(2))

    def unit_triangular(lower: bool):
        return [[Fraction(1) if i == j else rng.choice(entries) if (i > j) == lower
                 else Fraction(0) for j in range(n)] for i in range(n)]

    C = mat_mul(unit_triangular(True), unit_triangular(False))
    return C, inverse(C)


# -------------------------------------------- signed (partial) permutations

def sp_identity(n: int) -> tuple:
    return tuple((i, 1) for i in range(n))


def sp_compose(a: tuple, b: tuple) -> tuple:
    """The signed partial permutation of the matrix product a*b."""
    out = []
    for entry in a:
        if entry is None or b[entry[0]] is None:
            out.append(None)
        else:
            col, sign = b[entry[0]]
            out.append((col, sign * entry[1]))
    return tuple(out)


def sp_word(letters: dict, word) -> tuple:
    """Value of a word; the empty word is the identity."""
    value = sp_identity(len(next(iter(letters.values()))))
    for a in word:
        value = sp_compose(value, letters[a])
    return value


def sp_inverse(p: tuple) -> tuple:
    """Inverse of a full signed permutation."""
    inv: list = [None] * len(p)
    for i, (j, sign) in enumerate(p):
        inv[j] = (i, sign)
    return tuple(inv)


def rename(A, p: tuple):
    """p^-1 * A * p for a full signed permutation p: the entries of A moved
    to other places, some with their sign flipped."""
    return conjugate(A, sp_matrix(p), sp_matrix(sp_inverse(p)))


def sp_rank(a: tuple) -> int:
    return sum(entry is not None for entry in a)


def sp_matrix(a: tuple) -> list[list[Fraction]]:
    n = len(a)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i, entry in enumerate(a):
        if entry is not None:
            rows[i][entry[0]] = Fraction(entry[1])
    return rows


def sp_random(rng, rows, cols, n: int) -> tuple:
    """A random signed bijection from the row set onto the column set."""
    targets = list(cols)
    rng.shuffle(targets)
    image = dict(zip(sorted(rows), targets))
    return tuple((image[i], rng.choice((1, -1))) if i in image else None for i in range(n))


def sp_closure_size(gens, cap: int, with_identity: bool = False) -> int | None:
    """Size of the semigroup (or monoid) generated; None past `cap`."""
    seen = {sp_identity(len(gens[0]))} if with_identity else set()
    frontier = list(seen)
    for g in gens:
        if g not in seen:
            seen.add(g)
            frontier.append(g)
    while frontier:
        fresh = []
        for x in frontier:
            for g in gens:
                y = sp_compose(x, g)
                if y not in seen:
                    seen.add(y)
                    fresh.append(y)
                    if len(seen) > cap:
                        return None
        frontier = fresh
    return len(seen)


# ------------------------------------------------ 2x2 integer matrices
# held row-major as (a, b, c, d)

IDENTITY2 = (1, 0, 0, 1)


def mul2(x: tuple, y: tuple) -> tuple:
    a, b, c, d = x
    e, f, g, h = y
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def closure2_size(gens, cap: int) -> int | None:
    """Semigroup closure size of 2x2 integer matrices; None past `cap`."""
    seen = set(gens)
    frontier = list(seen)
    while frontier:
        fresh = []
        for x in frontier:
            for g in gens:
                y = mul2(x, g)
                if y not in seen:
                    seen.add(y)
                    fresh.append(y)
                    if len(seen) > cap:
                        return None
        frontier = fresh
    return len(seen)
