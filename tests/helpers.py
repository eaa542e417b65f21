"""Shared oracles and random generators for the test suite.

The oracles are deliberately naive re-implementations (cofactor
determinants, exhaustive minor gcds, subtract-only row reduction) so they
stay independent of the library code paths they check.
"""

from math import gcd
import json
import random

from rodtopo.errors import DiagramValidationError
from rodtopo.intlin import IntMatrix
from rodtopo.roddiagram import parse


def naive_det(rows):
    """Cofactor-expansion determinant of a list-of-lists square matrix."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * naive_det(minor)
    return total


def minor_gcd(A: IntMatrix, k: int) -> int:
    """gcd of all k x k minors computed with the cofactor determinant."""
    from itertools import combinations

    g = 0
    for ri in combinations(range(A.rows), k):
        for ci in combinations(range(A.cols), k):
            sub = [[A[i, j] for j in ci] for i in ri]
            g = gcd(g, naive_det(sub))
    return g


def naive_hnf(A: IntMatrix) -> IntMatrix:
    """Row-style Hermite form by exhaustive extended-gcd column clearing.

    Works column by column; within a column it repeatedly subtracts
    multiples of the row holding the smallest nonzero entry (a slow-motion
    Euclidean algorithm) until one nonzero entry survives.
    """
    h = A.to_lists()
    m, k = A.rows, A.cols
    pr = 0
    for col in range(k):
        if pr == m:
            break
        while True:
            live = [i for i in range(pr, m) if h[i][col] != 0]
            if len(live) <= 1:
                break
            live.sort(key=lambda i: abs(h[i][col]))
            base = live[0]
            for i in live[1:]:
                q = h[i][col] // h[base][col]
                h[i] = [u - q * v for u, v in zip(h[i], h[base])]
        live = [i for i in range(pr, m) if h[i][col] != 0]
        if not live:
            continue
        if live[0] != pr:
            h[pr], h[live[0]] = h[live[0]], h[pr]
        if h[pr][col] < 0:
            h[pr] = [-u for u in h[pr]]
        for j in range(pr):
            q = h[j][col] // h[pr][col]
            if q:
                h[j] = [u - q * v for u, v in zip(h[j], h[pr])]
        pr += 1
    return IntMatrix(h)


def rand_matrix(rng: random.Random, rows: int, cols: int, lo=-9, hi=9) -> IntMatrix:
    return IntMatrix([[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)])


def rand_unimodular(rng: random.Random, n: int, steps: int = 12) -> IntMatrix:
    """Random unimodular matrix as a product of elementary row operations."""
    m = IntMatrix.identity(n).to_lists()
    for _ in range(steps):
        kind = rng.randrange(3)
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if kind == 0 and i != j:
            c = rng.randint(-3, 3)
            m[i] = [a + c * b for a, b in zip(m[i], m[j])]
        elif kind == 1 and i != j:
            m[i], m[j] = m[j], m[i]
        else:
            m[i] = [-a for a in m[i]]
    return IntMatrix(m)


def rand_primitive(rng: random.Random, n: int, lo=-6, hi=6):
    """Random primitive vector in Z^n."""
    while True:
        v = [rng.randint(lo, hi) for _ in range(n)]
        g = 0
        for x in v:
            g = gcd(g, x)
        if g == 0:
            continue
        v = [x // g for x in v]
        return tuple(v)


def normalize_sign(v):
    for x in v:
        if x > 0:
            return tuple(v)
        if x < 0:
            return tuple(-y for y in v)
    return tuple(v)


def rand_admissible_next(rng: random.Random, v):
    """Random primitive w with Det_2(v, w) = 1, built from a basis completing v."""
    from rodtopo.intlin import hermite_normal_form

    n = len(v)
    res = hermite_normal_form(IntMatrix.from_columns([v]))
    binv = res.Q.inverse_unimodular()
    t = [rng.randint(-3, 3) for _ in range(n)]
    t[1] = 1
    return binv @ tuple(t)


def rand_admissible_chain(rng: random.Random, n: int, length: int):
    """Random chain of primitive vectors with consecutive Det_2 = 1."""
    chain = [rand_primitive(rng, n)]
    while len(chain) < length:
        chain.append(rand_admissible_next(rng, chain[-1]))
    return chain


# A rank-3 half-plane diagram with geometry and potentials whose one corner,
# between (1, 0, 0) and (1, 2, 0), has Det_2 = 2.
INADMISSIBLE_CORNER = {
    "n": 3,
    "shape": "half_plane",
    "rods": [
        {"kind": "axis", "v": [1, 0, 0], "z": ["-inf", 0], "potential": [0, 0, 0]},
        {"kind": "axis", "v": [1, 2, 0], "z": [0, 1], "potential": [0, 0, 0]},
        {"kind": "horizon", "z": [1, 2]},
        {"kind": "axis", "v": [0, 0, 1], "z": [2, "+inf"], "potential": [0.5, 0, 0]},
    ],
}


# The rank-3 run (-1,1,-1) | (-1,1,0) | H | (1,0,2) | H | (-1,2,-2) with zero
# potentials.  One of its frame ramps, from [[1,1,-1],[-1,-1,0],[0,1,0]] to
# [[1,1,0],[0,0,1],[2,0,0]], has det 1 and 2 at its ends but vanishes at
# s = 1/3 and s = (3 - sqrt 5)/2 in between, and a sampled check missed both
# roots.
SINGULAR_FRAME_RUN = {
    "n": 3,
    "shape": "half_plane",
    "rods": [
        {"kind": "axis", "v": [-1, 1, -1], "z": ["-inf", 1.5], "potential": [0, 0, 0]},
        {"kind": "axis", "v": [-1, 1, 0], "z": [1.5, 3], "potential": [0, 0, 0]},
        {"kind": "horizon", "z": [3, 4.5]},
        {"kind": "axis", "v": [1, 0, 2], "z": [4.5, 5.5], "potential": [0, 0, 0]},
        {"kind": "horizon", "z": [5.5, 6.5]},
        {"kind": "axis", "v": [-1, 2, -2], "z": [6.5, "+inf"], "potential": [0, 0, 0]},
    ],
}


# The rank-3 run (-1,-1,1) | H | (-2,1,0) | (1,-1,0) | H | (2,-1,2) with zero
# potentials.  Its plateau frame [[2,1,0],[-1,-1,0],[0,0,1]] on z in
# [2.6, 6.8) and its far frame [[2,1,1],[-1,1,0],[2,-1,0]] both have det -1,
# but their straight blend has det -4 chi^3 - chi^2 + 5 chi - 1, which is
# positive on an interval around chi = 0.57.
SINGULAR_BLEND_RUN = {
    "n": 3,
    "shape": "half_plane",
    "rods": [
        {"kind": "axis", "v": [-1, -1, 1], "z": ["-inf", 1], "potential": [0, 0, 0]},
        {"kind": "horizon", "z": [1, 3]},
        {"kind": "axis", "v": [-2, 1, 0], "z": [3, 5], "potential": [0, 0, 0]},
        {"kind": "axis", "v": [1, -1, 0], "z": [5, 6.5], "potential": [0, 0, 0]},
        {"kind": "horizon", "z": [6.5, 8]},
        {"kind": "axis", "v": [2, -1, 2], "z": [8, "+inf"], "potential": [0, 0, 0]},
    ],
}


def frame_corpus(count, seed=5):
    """The first ``count`` valid diagrams of a seeded rank-3 corpus for
    model-map construction.

    Each draw has 2-5 axis rods with entries in [-2, 2], a horizon in each
    gap between them with probability 0.4, finite lengths of 1, 1.5 or 2,
    and zero potentials.  Draws that fail validation (a vector that is not
    primitive, equal neighbours) are skipped; inadmissible corners are kept,
    since model-map construction is what rejects them.
    """
    rng = random.Random(seed)
    diagrams = []
    while len(diagrams) < count:
        vectors = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(rng.randint(2, 5))]
        rods = []
        for k, v in enumerate(vectors):
            if k and rng.random() < 0.4:
                rods.append({"kind": "horizon"})
            rods.append({"kind": "axis", "v": v, "potential": [0, 0, 0]})
        z = 0.0
        for k, rod in enumerate(rods):
            lo = "-inf" if k == 0 else z
            if k < len(rods) - 1:
                z += rng.choice((1, 1.5, 2))
            rod["z"] = [lo, "+inf" if k == len(rods) - 1 else z]
        try:
            diagrams.append(parse(json.dumps({"n": 3, "shape": "half_plane", "rods": rods})))
        except DiagramValidationError:
            continue
    return diagrams
