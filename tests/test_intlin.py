import random

import pytest

from math import gcd

from rodtopo.intlin import (
    IntMatrix,
    determinant_divisor,
    HermiteResult,
    _assert_hermite,
    _bezout,
    _egcd,
    hermite_normal_form,
    hermite_pivots,
    is_primitive_set,
    is_primitive_vector,
    smith_normal_form,
)

from helpers import minor_gcd, naive_hnf, rand_matrix, rand_unimodular


FIG1_COLUMNS = [(1, 0, 0), (1, -1, 1), (2, 0, 3), (1, 1, 0)]
FIG1_HNF_COLUMNS = [(1, 0, 0), (0, 1, 0), (2, 0, 3), (2, -1, 1)]
FIG1_Q = IntMatrix([(1, 1, 0), (0, -1, 0), (0, 1, 1)])


def test_hermite_single_black_hole_diagram():
    A = IntMatrix.from_columns(FIG1_COLUMNS)
    res = hermite_normal_form(A)
    assert res.H == IntMatrix.from_columns(FIG1_HNF_COLUMNS)
    assert res.Q == FIG1_Q
    assert res.Q @ A == res.H


def test_hermite_identity():
    A = IntMatrix.identity(4)
    res = hermite_normal_form(A)
    assert res.H == A
    assert res.Q == A
    assert res.pivots == tuple((i, i) for i in range(4))


def test_hermite_matches_naive_reduction():
    rng = random.Random(101)
    for _ in range(300):
        A = rand_matrix(rng, 3, 4)
        assert hermite_normal_form(A).H == naive_hnf(A)


def test_hermite_invariance_under_unimodular_premultiplication():
    rng = random.Random(102)
    for _ in range(200):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 5)
        A = rand_matrix(rng, rows, cols)
        B = rand_unimodular(rng, rows)
        assert hermite_normal_form(B @ A).H == hermite_normal_form(A).H


def test_hermite_q_unique_for_full_row_rank():
    # Q is pinned by A whenever the rows are independent, so two different
    # paths to the same normal form must agree on it.
    rng = random.Random(103)
    found = 0
    while found < 50:
        A = rand_matrix(rng, 3, 5)
        res = hermite_normal_form(A)
        if res.rank < 3:
            continue
        found += 1
        B = rand_unimodular(rng, 3)
        res2 = hermite_normal_form(B @ A)
        assert res2.Q @ B == res.Q


def _hermite_near_misses(rng, H, pivots):
    """Copies of the Hermite form H, as row lists, each with one of its
    shape rules broken: an entry above a pivot equal to the pivot or
    negative, a pivot <= 0, a zero row above a nonzero row, and two pivot
    rows swapped so the pivots do not move right."""
    rows = H.to_lists()
    out = []
    for r, c in pivots:
        if r > 0:
            bad = [list(row) for row in rows]
            bad[rng.randrange(r)][c] = rng.choice((rows[r][c], -rng.randint(1, 3)))
            out.append(bad)
        bad = [list(row) for row in rows]
        bad[r][c] = rng.choice((0, -rows[r][c]))
        out.append(bad)
    rank = len(pivots)
    if 0 < rank < H.rows:
        # move the last (zero) row above a pivot row
        bad = [list(row) for row in rows[:-1]]
        bad.insert(rng.randrange(rank), list(rows[-1]))
        out.append(bad)
    elif rank >= 2:
        bad = [list(row) for row in rows]
        bad[rng.randrange(rank - 1)] = [0] * H.cols
        out.append(bad)
    if len(pivots) >= 2:
        bad = [list(row) for row in rows]
        i, j = sorted(rng.sample(range(len(pivots)), 2))
        bad[i], bad[j] = bad[j], bad[i]
        out.append(bad)
    return [IntMatrix(bad) for bad in out]


def test_hermite_pivots_agree_with_the_normal_form():
    rng = random.Random(104)
    verdicts = {True: 0, False: 0}
    for _ in range(400):
        n = rng.randint(2, 6)
        cols = rng.randint(1, 8)
        if rng.random() < 0.4:
            # rank below n, so that the form has zero rows
            k = rng.randint(1, n - 1)
            A = rand_matrix(rng, n, k, -3, 3) @ rand_matrix(rng, k, cols, -3, 3)
        else:
            A = rand_matrix(rng, n, cols, -6, 6)
        form = hermite_normal_form(A)
        for M in [A, form.H] + _hermite_near_misses(rng, form.H, form.pivots):
            res = hermite_normal_form(M)
            is_form = res.H == M
            assert hermite_pivots(M) == (res.pivots if is_form else None)
            verdicts[is_form] += 1
    assert min(verdicts.values()) >= 400


def test_assert_hermite_checks_the_shape():
    A = IntMatrix.from_columns(FIG1_COLUMNS)
    res = hermite_normal_form(A)
    _assert_hermite(res, A)
    # -Q is unimodular and -Q @ A == -H, so only the shape refuses these
    def neg(M):
        return IntMatrix([[-x for x in row] for row in M.to_lists()])

    negated = HermiteResult(neg(res.H), neg(res.Q), res.pivots)
    with pytest.raises(AssertionError, match="not in Hermite form"):
        _assert_hermite(negated, A)
    with pytest.raises(AssertionError, match="recorded pivots"):
        _assert_hermite(HermiteResult(res.H, res.Q, res.pivots[:-1]), A)


def test_smith_diag_2_3():
    res = smith_normal_form(IntMatrix([[2, 0], [0, 3]]))
    assert res.divisors == (1, 6)


def test_smith_zero_matrix():
    zero = IntMatrix([[0, 0], [0, 0], [0, 0]])
    res = smith_normal_form(zero)
    assert res.divisors == (0, 0)
    assert res.S == zero


def test_smith_rank_two_columns():
    res = smith_normal_form(IntMatrix.from_columns([(1, 2), (1, 0)]))
    assert res.divisors == (1, 2)


def test_smith_divisors_match_determinant_divisor_quotients():
    rng = random.Random(104)
    for _ in range(200):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        A = rand_matrix(rng, rows, cols, -6, 6)
        res = smith_normal_form(A)
        prev = 1
        for i, s in enumerate(res.divisors, start=1):
            dk = minor_gcd(A, i)
            if dk == 0:
                assert s == 0
            else:
                assert s == dk // prev
                prev = dk


def test_smith_reconstruction_exact():
    rng = random.Random(105)
    for _ in range(100):
        A = rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        res = smith_normal_form(A)
        assert res.U @ A @ res.V == res.S


def test_determinant_divisor_examples():
    assert determinant_divisor(IntMatrix.from_columns([(1, 0, 0), (11, 9, 24)]), 2) == 3
    v = (3, -5, 7)
    assert determinant_divisor(IntMatrix.from_columns([v, v]), 2) == 0
    assert determinant_divisor(IntMatrix.from_columns([(4, 6, 10)]), 1) == 2


def test_determinant_divisor_against_minor_gcd_oracle():
    rng = random.Random(106)
    for _ in range(150):
        A = rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 4), -7, 7)
        for k in range(1, min(A.rows, A.cols) + 1):
            assert determinant_divisor(A, k) == minor_gcd(A, k)


def test_determinant_divisor_against_brute_force_minors():
    rng = random.Random(113)
    shapes = [(r, c) for r in range(1, 6) for c in range(1, 6)] + [(2, 9), (3, 8)]
    kinds = {"zero": 0, "rank_deficient": 0, "large": 0}
    for trial in range(400):
        # every shape in turn; every fifth round of shapes zero, the next
        # one rank-deficient, the next one with entries near +-10**20
        m, n = shapes[trial % len(shapes)]
        kind = trial // len(shapes) % 5
        entries = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
        if kind == 0:
            entries = [[0] * n for _ in range(m)]
            kinds["zero"] += 1
        elif kind == 1 and m > 1:
            # last row a combination of the others, so Det_m vanishes
            a = [rng.randint(-2, 2) for _ in range(m - 1)]
            entries[-1] = [sum(c * row[j] for c, row in zip(a, entries)) for j in range(n)]
            kinds["rank_deficient"] += 1
        elif kind == 2:
            # even entries: 2**k divides every k x k minor, so no early exit
            # at gcd 1 skips one
            entries = [[rng.choice((-1, 1)) * 10**20 + 2 * x for x in row] for row in entries]
            kinds["large"] += 1
        A = IntMatrix(entries)
        for k in range(1, min(m, n) + 1):
            assert determinant_divisor(A, k) == minor_gcd(A, k)
    assert min(kinds.values()) >= 60


def test_determinant_divisor_invariance():
    rng = random.Random(107)
    for _ in range(150):
        A = rand_matrix(rng, 3, rng.randint(1, 4))
        B = rand_unimodular(rng, 3)
        for k in range(1, min(A.rows, A.cols) + 1):
            assert determinant_divisor(B @ A, k) == determinant_divisor(A, k)


def test_determinant_divisor_out_of_range():
    A = IntMatrix.identity(2)
    with pytest.raises(ValueError):
        determinant_divisor(A, 3)
    with pytest.raises(ValueError):
        determinant_divisor(A, 0)


def test_primitive_vector():
    assert is_primitive_vector((2, 3, 5))
    assert not is_primitive_vector((2, 4, 6))
    assert not is_primitive_vector((0, 0))


def test_primitive_set_examples():
    assert is_primitive_set([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert not is_primitive_set([(1, 0), (0, 2)])
    assert not is_primitive_set([(1, 0), (0, 1), (1, 1)])  # k > n impossible


def test_primitivity_three_routes_agree():
    rng = random.Random(108)
    for _ in range(200):
        n = rng.randint(2, 5)
        k = rng.randint(1, n)
        vs = [tuple(rng.randint(-5, 5) for _ in range(n)) for _ in range(k)]
        if all(all(x == 0 for x in v) for v in vs):
            continue
        A = IntMatrix.from_columns(vs)
        via_detk = minor_gcd(A, k) == 1
        hb = hermite_normal_form(A).H
        upper_identity = all(
            hb[i, j] == (1 if i == j else 0) for i in range(k) for j in range(k)
        )
        assert is_primitive_set(vs) == via_detk == upper_identity


def test_exact_reconstruction_bit_for_bit():
    rng = random.Random(109)
    for _ in range(100):
        A = rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 5), -30, 30)
        h = hermite_normal_form(A)
        assert h.Q @ A == h.H
        s = smith_normal_form(A)
        assert s.U @ A @ s.V == s.S


def test_large_entry_growth_is_exact():
    # Entries grow without bound during reduction; make sure nothing clips.
    A = IntMatrix(
        [
            [10**12 + 7, -(10**9), 3],
            [5, 10**14 + 1, -(10**11)],
            [123456789, 987654321, 10**13],
        ]
    )
    h = hermite_normal_form(A)
    assert h.Q @ A == h.H
    s = smith_normal_form(A)
    assert s.U @ A @ s.V == s.S


def test_primitive_vector_rejects_floats():
    # int() used to truncate 1.5 to 1, which made this vector primitive
    with pytest.raises(TypeError, match="entries must be integers"):
        is_primitive_vector((1.5, 2))


def test_primitive_set_rejects_floats():
    with pytest.raises(TypeError, match="entries must be integers"):
        is_primitive_set([(1.5, 0), (0, 1)])


def test_inverse_unimodular():
    rng = random.Random(110)
    for _ in range(50):
        n = rng.randint(1, 4)
        B = rand_unimodular(rng, n)
        B_inv = B.inverse_unimodular()
        assert B @ B_inv == IntMatrix.identity(n)
        assert B_inv @ B == IntMatrix.identity(n)
    singular = IntMatrix([(1, 2), (2, 4)])
    det_two = IntMatrix([(2, 0), (0, 1)])
    det_minus_two = IntMatrix([(0, 1), (2, 0)])
    non_square = IntMatrix([(1, 0, 0), (0, 1, 0)])
    for A in (singular, det_two, det_minus_two, non_square):
        with pytest.raises(ValueError):
            A.inverse_unimodular()


def test_smith_divisors_match_sympy_invariant_factors():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    rng = random.Random(111)
    for _ in range(150):
        A = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 5), -9, 9)
        mine = [d for d in smith_normal_form(A).divisors if d != 0]
        theirs = [abs(int(x)) for x in invariant_factors(sympy.Matrix(A.to_lists()))]
        theirs = [t for t in theirs if t != 0]
        assert mine == theirs


def test_public_constructor_rejects_non_integers_and_ragged_rows():
    with pytest.raises(TypeError):
        IntMatrix([[1, 2.0]])
    with pytest.raises(TypeError):
        IntMatrix.from_columns([(1, 0), (0.5, 1)])
    with pytest.raises(ValueError):
        IntMatrix([[1, 2], [3]])
    with pytest.raises(ValueError):
        IntMatrix.from_columns([(1, 0), (1,)])
    assert IntMatrix([[True, 0]]) == IntMatrix([[1, 0]])
    with pytest.raises(TypeError, match="entries must be integers"):
        IntMatrix.identity(2) @ (1.5, 0)


def test_internal_results_equal_validated_matrices():
    rng = random.Random(112)
    for _ in range(50):
        A = rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        h, s = hermite_normal_form(A), smith_normal_form(A)
        results = [h.H, h.Q, s.S, s.U, s.V, A @ s.V]
        results.append(IntMatrix.identity(A.rows))
        for M in results:
            validated = IntMatrix(M.to_lists())
            assert M == validated
            assert hash(M) == hash(validated)
            assert (M.rows, M.cols) == (validated.rows, validated.cols)
            assert all(type(x) is int for row in M.to_lists() for x in row)


def _three_sequence_egcd(a, b):
    """The classical extended Euclid walk, carrying both coefficient
    sequences: the reference for _egcd's one-sequence walk."""
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


def test_egcd_matches_the_three_sequence_walk():
    # the Q, U and V of every normal form hang on these coefficients, so
    # they must be the classical walk's, bit for bit
    rng = random.Random(113)
    pairs = [(a, b) for a in range(-6, 7) for b in range(-6, 7)]
    for bound in (10, 1000, 10**12):
        pairs += [(rng.randint(-bound, bound), rng.randint(-bound, bound)) for _ in range(4000)]
    pairs += [(rng.randint(-50, 50), 0) for _ in range(200)]
    pairs += [(0, rng.randint(-50, 50)) for _ in range(200)]
    assert len(pairs) >= 10**4
    for a, b in pairs:
        assert _egcd(a, b) == _three_sequence_egcd(a, b), (a, b)
    signs = {(a > 0) - (a < 0) for a, _ in pairs} | {(b > 0) - (b < 0) for _, b in pairs}
    assert signs == {-1, 0, 1}


def test_bezout_coefficients_give_the_gcd():
    rng = random.Random(114)
    lists = [[], [0], [0, 0, 0], [5], [-5], [0, -1, 7], [6, 10, 15], [-4, 0, -6, 9]]
    for _ in range(3000):
        values = [rng.choice((0, 0, rng.randint(-30, 30))) for _ in range(rng.randint(1, 10))]
        if rng.random() < 0.3:
            values[rng.randrange(len(values))] = rng.choice((1, -1))
        lists.append(values)
    units_at = set()
    for values in lists:
        g, c = _bezout(values)
        assert g == gcd(*values)
        # one coefficient per value read, and reading stops at gcd 1
        assert len(c) <= len(values)
        assert sum(x * y for x, y in zip(c, values)) == g
        if g == 1:
            assert gcd(*values[: len(c)]) == 1 and gcd(*values[: len(c) - 1]) != 1
            if abs(values[len(c) - 1]) == 1:
                units_at.add(len(c) - 1)
        else:
            assert len(c) == len(values)
    assert _bezout([0, 0, 0]) == (0, [0, 0, 0])
    # a unit ends the reading wherever it stands
    assert units_at >= set(range(8))
