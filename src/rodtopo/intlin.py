"""Exact arbitrary-precision integer matrix algorithms.

Everything here runs on plain Python integers, so no result ever overflows
or rounds.  The two normal forms return their transformation matrices and
are deterministic: identical inputs give bit-identical outputs.

Conventions
-----------
Hermite form is row-style: ``Q @ A == H`` with ``Q`` unimodular, nonzero
rows of ``H`` first, pivots positive and strictly right-moving, and the
entries above a pivot reduced into ``[0, pivot)``.  Smith form is
``U @ A @ V == S`` with ``S`` diagonal, nonnegative, and each diagonal
entry dividing the next.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import combinations
from math import gcd


def _int_vector(values):
    """Tuple of plain ints; operator.index accepts exact integers only, so
    a float or a string raises TypeError instead of being truncated."""
    try:
        return tuple(map(int, map(operator.index, values)))
    except TypeError:
        raise TypeError("entries must be integers") from None


class IntMatrix:
    """Immutable integer matrix stored as a tuple of row tuples."""

    __slots__ = ("rows", "cols", "_e")

    def __init__(self, entries):
        rows = tuple(map(_int_vector, entries))
        if not rows or not rows[0]:
            raise ValueError("matrix must have at least one row and one column")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("ragged rows")
        self.rows = len(rows)
        self.cols = width
        self._e = rows

    @classmethod
    def _trusted(cls, rows):
        """Wrap a nonempty tuple of equal-length tuples of ints without
        re-checking them; only for results this module computed itself."""
        matrix = object.__new__(cls)
        matrix.rows = len(rows)
        matrix.cols = len(rows[0])
        matrix._e = rows
        return matrix

    @classmethod
    def from_columns(cls, columns):
        cols = [tuple(c) for c in columns]
        if not cols:
            raise ValueError("need at least one column")
        if any(len(c) != len(cols[0]) for c in cols):
            raise ValueError("ragged columns")
        return cls(zip(*cols))

    @classmethod
    def identity(cls, n):
        if n < 1:
            raise ValueError("matrix must have at least one row and one column")
        return cls._trusted(
            tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        )

    @classmethod
    def zeros(cls, rows, cols):
        return cls([[0] * cols for _ in range(rows)])

    def __getitem__(self, key):
        i, j = key
        return self._e[i][j]

    def column(self, j):
        return tuple(r[j] for r in self._e)

    def columns(self):
        return [self.column(j) for j in range(self.cols)]

    def to_lists(self):
        return [list(r) for r in self._e]

    def transpose(self):
        return IntMatrix._trusted(tuple(zip(*self._e)))

    def __matmul__(self, other):
        if isinstance(other, IntMatrix):
            if self.cols != other.rows:
                raise ValueError("shape mismatch")
            ot = tuple(zip(*other._e))
            return IntMatrix._trusted(
                tuple(
                    tuple(sum(map(operator.mul, row, col)) for col in ot)
                    for row in self._e
                )
            )
        # matrix @ vector
        vec = _int_vector(other)
        if self.cols != len(vec):
            raise ValueError("shape mismatch")
        return tuple(sum(map(operator.mul, row, vec)) for row in self._e)

    def __neg__(self):
        return IntMatrix._trusted(tuple(tuple(-x for x in row) for row in self._e))

    def __eq__(self, other):
        return isinstance(other, IntMatrix) and self._e == other._e

    def __hash__(self):
        return hash(self._e)

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self._e)
        return f"IntMatrix[{body}]"

    def det(self):
        """Exact determinant by fraction-free (Bareiss) elimination."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        return _bareiss_det([list(r) for r in self._e])

    def is_unimodular(self):
        return self.rows == self.cols and self.det() in (1, -1)

    def inverse_unimodular(self):
        """Exact inverse; requires det = +-1 so the inverse is integral.

        The Hermite form of a unimodular matrix is the identity, so its
        transformation matrix Q (Q @ A == I) is the inverse.
        """
        if not self.is_unimodular():
            raise ValueError("matrix is not unimodular")
        return hermite_normal_form(self).Q


def _bareiss_det(a):
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _egcd(a, b):
    """Return (g, x, y) with g = gcd(a, b) >= 0 and g = a*x + b*y."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        return -old_r, -old_s, -old_t
    return old_r, old_s, old_t


@dataclass(frozen=True)
class HermiteResult:
    H: IntMatrix
    Q: IntMatrix
    pivots: tuple  # (row, col) positions of the pivots of H

    @property
    def rank(self):
        return len(self.pivots)


@dataclass(frozen=True)
class SmithResult:
    S: IntMatrix
    U: IntMatrix
    V: IntMatrix
    divisors: tuple  # s_1..s_min, nonnegative, divisibility chain

    @property
    def rank(self):
        return sum(1 for s in self.divisors if s != 0)


def hermite_normal_form(A: IntMatrix) -> HermiteResult:
    """Row-style Hermite normal form with its transformation matrix.

    Returns H, Q with Q @ A == H exactly and |det Q| = 1.  H is the unique
    normal form; Q is unique whenever A has full row rank, and otherwise is
    pinned down by the fixed reduction order below.
    """
    m, k = A.rows, A.cols
    h = A.to_lists()
    q = IntMatrix.identity(m).to_lists()
    pr = 0
    pivots = []
    for col in range(k):
        if pr == m:
            break
        # fold rows pr+1.. into row pr until the column is clear below pr
        for i in range(pr + 1, m):
            if h[i][col] == 0:
                continue
            a, b = h[pr][col], h[i][col]
            g, x, y = _egcd(a, b)
            c, d = -(b // g), a // g
            h[pr], h[i] = (
                [x * u + y * v for u, v in zip(h[pr], h[i])],
                [c * u + d * v for u, v in zip(h[pr], h[i])],
            )
            q[pr], q[i] = (
                [x * u + y * v for u, v in zip(q[pr], q[i])],
                [c * u + d * v for u, v in zip(q[pr], q[i])],
            )
        if h[pr][col] == 0:
            continue
        if h[pr][col] < 0:
            h[pr] = [-u for u in h[pr]]
            q[pr] = [-u for u in q[pr]]
        p = h[pr][col]
        for j in range(pr):
            f = h[j][col] // p  # floor keeps the residue in [0, p)
            if f:
                h[j] = [u - f * v for u, v in zip(h[j], h[pr])]
                q[j] = [u - f * v for u, v in zip(q[j], q[pr])]
        pivots.append((pr, col))
        pr += 1
    result = HermiteResult(
        IntMatrix._trusted(tuple(map(tuple, h))),
        IntMatrix._trusted(tuple(map(tuple, q))),
        tuple(pivots),
    )
    _assert_hermite(result, A)
    return result


def _assert_hermite(res, A):
    H, Q, pivots = res.H, res.Q, res.pivots
    if Q @ A != H:
        raise AssertionError("Hermite reduction broke Q @ A == H")
    if not Q.is_unimodular():
        raise AssertionError("Hermite transformation matrix is not unimodular")
    m = len(pivots)
    last_col = -1
    for i, (r, c) in enumerate(pivots):
        if r != i or c <= last_col:
            raise AssertionError("pivot positions out of order")
        last_col = c
        if H[r, c] <= 0 or any(H[r, j] != 0 for j in range(c)):
            raise AssertionError("pivot not positive leading entry")
        for j in range(r):
            if not 0 <= H[j, c] < H[r, c]:
                raise AssertionError("entry above pivot not reduced")
    for r in range(m, H.rows):
        if any(H[r, j] != 0 for j in range(H.cols)):
            raise AssertionError("nonzero row below the pivot rows")


def smith_normal_form(A: IntMatrix) -> SmithResult:
    """Smith normal form with both transformation matrices.

    Returns S, U, V with U @ A @ V == S exactly, |det U| = |det V| = 1,
    S diagonal and nonnegative, and s_i | s_{i+1} along the rank.
    """
    m, k = A.rows, A.cols
    a = A.to_lists()
    u = IntMatrix.identity(m).to_lists()
    v = IntMatrix.identity(k).to_lists()

    def row_combine(i1, i2, x, y, c, d):
        a[i1], a[i2] = (
            [x * p + y * q for p, q in zip(a[i1], a[i2])],
            [c * p + d * q for p, q in zip(a[i1], a[i2])],
        )
        u[i1], u[i2] = (
            [x * p + y * q for p, q in zip(u[i1], u[i2])],
            [c * p + d * q for p, q in zip(u[i1], u[i2])],
        )

    def col_combine(j1, j2, x, y, c, d):
        for row in a:
            row[j1], row[j2] = x * row[j1] + y * row[j2], c * row[j1] + d * row[j2]
        for row in v:
            row[j1], row[j2] = x * row[j1] + y * row[j2], c * row[j1] + d * row[j2]

    t = 0
    size = min(m, k)
    while t < size:
        # deterministic pivot: smallest |value| != 0, first position on ties
        best = None
        for i in range(t, m):
            for j in range(t, k):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        if bi != t:
            a[t], a[bi] = a[bi], a[t]
            u[t], u[bi] = u[bi], u[t]
        if bj != t:
            col_combine(t, bj, 0, 1, 1, 0)
        while True:
            for i in range(t + 1, m):
                if a[i][t] == 0:
                    continue
                if a[i][t] % a[t][t] == 0:
                    row_combine(t, i, 1, 0, -(a[i][t] // a[t][t]), 1)
                else:
                    g, x, y = _egcd(a[t][t], a[i][t])
                    row_combine(t, i, x, y, -(a[i][t] // g), a[t][t] // g)
            for j in range(t + 1, k):
                if a[t][j] == 0:
                    continue
                if a[t][j] % a[t][t] == 0:
                    col_combine(t, j, 1, 0, -(a[t][j] // a[t][t]), 1)
                else:
                    g, x, y = _egcd(a[t][t], a[t][j])
                    col_combine(t, j, x, y, -(a[t][j] // g), a[t][t] // g)
            if any(a[i][t] != 0 for i in range(t + 1, m)):
                continue
            # pivot must divide every remaining entry
            bad = None
            for i in range(t + 1, m):
                for j in range(t + 1, k):
                    if a[i][j] % a[t][t] != 0:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            row_combine(t, bad, 1, 1, 0, 1)  # pull the offending row onto row t
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        t += 1

    S, U, V = (IntMatrix._trusted(tuple(map(tuple, x))) for x in (a, u, v))
    divisors = tuple(a[i][i] for i in range(size))
    result = SmithResult(S, U, V, divisors)
    _assert_smith(result, A)
    return result


def _assert_smith(res, A):
    S, U, V, divisors = res.S, res.U, res.V, res.divisors
    if U @ A @ V != S:
        raise AssertionError("Smith reduction broke U @ A @ V == S")
    if not U.is_unimodular() or not V.is_unimodular():
        raise AssertionError("Smith transformation matrices are not unimodular")
    for i in range(S.rows):
        for j in range(S.cols):
            if i != j and S[i, j] != 0:
                raise AssertionError("Smith form is not diagonal")
    seen_zero = False
    for i, s in enumerate(divisors):
        if s < 0:
            raise AssertionError("negative elementary divisor")
        if s == 0:
            seen_zero = True
        elif seen_zero:
            raise AssertionError("nonzero divisor after a zero one")
        if i + 1 < len(divisors) and s != 0 and divisors[i + 1] != 0:
            if divisors[i + 1] % s != 0:
                raise AssertionError("divisibility chain broken")


def determinant_divisor(A: IntMatrix, k: int) -> int:
    """gcd of all k x k minors of A (0 when they all vanish).

    Invariant under left (and right) multiplication by unimodular matrices.
    """
    if not 1 <= k <= min(A.rows, A.cols):
        raise ValueError(f"k = {k} out of range for a {A.rows} x {A.cols} matrix")
    g = 0
    for minor in _minors(A._e, k, A.cols):
        g = gcd(g, minor)
        if g == 1:
            return 1
    return g


def _minors(rows, k, width):
    """Every k x k minor of the row tuples, row sets outer and column sets
    inner, both in combinations order.  Minors up to 3 x 3 are expanded by
    cofactors; larger ones go through Bareiss elimination."""
    col_sets = list(combinations(range(width), k))
    if k == 1:
        for row in rows:
            yield from row
    elif k == 2:
        for a, b in combinations(rows, 2):
            for i, j in col_sets:
                yield a[i] * b[j] - a[j] * b[i]
    elif k == 3:
        for a, b, c in combinations(rows, 3):
            for i, j, l in col_sets:
                yield (
                    a[i] * (b[j] * c[l] - b[l] * c[j])
                    - a[j] * (b[i] * c[l] - b[l] * c[i])
                    + a[l] * (b[i] * c[j] - b[j] * c[i])
                )
    else:
        for rs in combinations(rows, k):
            for ci in col_sets:
                yield _bareiss_det([[row[j] for j in ci] for row in rs])


def is_primitive_vector(v) -> bool:
    """True iff the gcd of the components is 1."""
    return gcd(*_int_vector(v)) == 1


def is_primitive_set(vectors) -> bool:
    """True iff the vectors are independent and extend to a Z^n basis.

    Equivalent to Det_k = 1 for the matrix with the vectors as columns,
    and to the upper k x k block of its Hermite form being the identity.
    """
    vectors = [_int_vector(v) for v in vectors]
    if not vectors:
        return True
    n = len(vectors[0])
    k = len(vectors)
    if k > n:
        return False
    return determinant_divisor(IntMatrix.from_columns(vectors), k) == 1


def lattice_contains(A: IntMatrix, x) -> bool:
    """Membership of x in the integer column span of A, via the Smith form."""
    x = _int_vector(x)
    if len(x) != A.rows:
        raise ValueError("vector length must match the row count")
    return _smith_span_contains(smith_normal_form(A), x)


def _smith_span_contains(snf: SmithResult, x) -> bool:
    """Membership of the integer vector x in the column span of the matrix
    whose Smith form is snf: each entry of U x must be a multiple of its
    divisor, and zero past the divisors."""
    divisors = snf.divisors
    for i, yi in enumerate(snf.U @ x):
        s = divisors[i] if i < len(divisors) else 0
        if s == 0:
            if yi != 0:
                return False
        elif yi % s != 0:
            return False
    return True


def vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def vec_scale(c, v):
    return tuple(c * a for a in v)
