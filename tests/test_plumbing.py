import json
import random
from math import gcd

import pytest

from rodtopo import intlin, plumbing
from rodtopo.errors import (
    ClassifyError,
    InadmissibleCornerError,
    ModelMapError,
    PlumbingRelationError,
)
from rodtopo.intlin import IntMatrix, determinant_divisor, hermite_normal_form, hermite_pivots
from rodtopo.plumbing import (
    Bundle,
    ToricPlumbing,
    decompose_component,
    doc_decomposition,
    plumbing_to_rods,
    plumbing_vector,
    triple_to_bundle,
    verify_plumbing_relations,
)
from rodtopo.modelmap import build_model_map
from rodtopo.roddiagram import Rod, RodDiagram, det2, parse
from rodtopo.topology import classify, compactify

from helpers import (
    INADMISSIBLE_CORNER,
    minor_gcd,
    rand_admissible_chain,
    rand_admissible_next,
    rand_primitive,
    rand_unimodular,
)


L52_E3 = Bundle.from_qrp(2, 3, 5, 0)  # over L(5,2), euler 3
L73_E2 = Bundle.from_qrp(3, 2, 7, 0)  # over L(7,3), euler 2


# ----------------------------------------------------------------------
# triple_to_bundle


def test_triple_to_bundle_lens():
    b = triple_to_bundle((1, 0, 0), (0, 1, 0), (2, 3, 5))
    assert (b.base, b.p, b.q, b.euler) == ("Lens", 5, 2, 3)


def test_triple_to_bundle_euler_zero():
    for p, q in [(5, 2), (7, 3), (3, 1)]:
        b = triple_to_bundle((1, 0, 0), (0, 1, 0), (q, 0, p))
        assert (b.p, b.q, b.euler) == (p, q, 0)


def test_triple_to_bundle_ring():
    b = triple_to_bundle((1, 0, 0), (0, 1, 0), (1, 4, 0))
    assert (b.base, b.euler) == ("S1xS2", 4)


def test_triple_to_bundle_s3():
    b = triple_to_bundle((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))
    assert (b.base, b.p, b.q, b.euler, b.torus_factor) == ("S3", 1, 0, 0, 1)


def test_triple_to_bundle_inadmissible():
    # the first corner's Det_2 is the gcd behind the minor reading
    with pytest.raises(InadmissibleCornerError, match=r"first corner .*Det_2 = 2") as info:
        triple_to_bundle((1, 0, 0), (1, 2, 0), (0, 0, 1))
    assert info.value.det2 == 2
    with pytest.raises(InadmissibleCornerError, match=r"second corner .*Det_2 = 4"):
        triple_to_bundle((1, 0, 0), (0, 1, 0), (0, 2, 4))
    with pytest.raises(ValueError, match="ragged columns"):
        triple_to_bundle((1, 0, 0, 0), (0, 1, 0), (0, 0, 1))


def _hermite_triple_bundle(v1, v2, v3):
    """Reference reading of an admissible triple: the bundle of the third
    column (q, r, p, 0, ...) of the 3-column Hermite form of [v1 v2 v3],
    whose first two columns are e1, e2, with the q = -1 -> +1 sign rule of
    a dependent triple; also returns whether the sign rule applied."""
    n = len(v1)
    cols = hermite_normal_form(IntMatrix.from_columns([v1, v2, v3])).H.columns()
    assert cols[0] == tuple(int(i == 0) for i in range(n))
    assert cols[1] == tuple(int(i == 1) for i in range(n))
    q, r, p = cols[2][:3]
    assert not any(cols[2][3:])
    flipped = p == 0 and q == -1
    if flipped:
        q, r = 1, -r
    return Bundle.from_qrp(q, r, p, n - 3), flipped


def test_minor_reading_matches_hermite_reference():
    rng = random.Random(54)
    triples = []
    for n in (3, 4, 5, 6):
        for _ in range(150):
            chain = rand_admissible_chain(rng, n, 10)
            triples += zip(chain, chain[1:], chain[2:])
            chain = _chain_with_dependent_triples(rng, n, 10)
            triples += zip(chain, chain[1:], chain[2:])
    assert len(triples) >= 5000
    kinds = {"independent": 0, "dependent": 0, "flipped": 0}
    for v1, v2, v3 in triples:
        expected = _hermite_triple_bundle(v1, v2, v3)
        c, m23 = plumbing._pair_dual(v1, v2)[1], plumbing._pair_dual(v2, v3)[2]
        assert plumbing._admissible_triple_bundle(v1, v2, v3, c, m23) == expected
        assert triple_to_bundle(v1, v2, v3) == expected[0]
        if expected[1]:
            kinds["flipped"] += 1
        elif expected[0].p == 0:
            kinds["dependent"] += 1
        else:
            kinds["independent"] += 1
    # dependent triples of both signs and independent ones all occur often
    assert min(kinds.values()) >= 500


def test_reading_does_not_depend_on_the_bezout_functional():
    # c + (m_b e_a - m_a e_b) is another valid functional of the first
    # pair, since sum c_k m_k stays 1; the triple's Hermite form is unique,
    # so the reading must not move
    rng = random.Random(57)
    triples = []
    for n in (3, 4, 5):
        for _ in range(40):
            for chain in (rand_admissible_chain(rng, n, 8), _chain_with_dependent_triples(rng, n, 8)):
                triples += zip(chain, chain[1:], chain[2:])
    moved = {"independent": 0, "dependent": 0, "flipped": 0}
    for v1, v2, v3 in triples:
        _, c, m = plumbing._pair_dual(v1, v2)
        m23 = plumbing._pair_dual(v2, v3)[2]
        expected = plumbing._admissible_triple_bundle(v1, v2, v3, c, m23)
        a, b = rng.sample(range(len(m)), 2)
        other = c + [0] * (len(m) - len(c))
        other[a] += m[b]
        other[b] -= m[a]
        assert sum(x * y for x, y in zip(other, m)) == 1
        assert plumbing._admissible_triple_bundle(v1, v2, v3, other, m23) == expected
        if other[: len(c)] != c or any(other[len(c) :]):
            bundle, flipped = expected
            moved["flipped" if flipped else "dependent" if bundle.p == 0 else "independent"] += 1
    # a different functional, on triples of every kind
    assert min(moved.values()) >= 50


def _forge(bundle):
    """A datum of the same kind that does not belong to the triple: another
    unit q mod p, or another euler number for p = 0."""
    q, r, p = bundle.qrp
    if p == 0:
        return Bundle.from_qrp(1, r + 1, 0, bundle.torus_factor)
    forged = next(x for x in range(1, p) if x != q and gcd(x, p) == 1)
    return Bundle.from_qrp(forged, r, p, bundle.torus_factor)


def test_forged_reading_is_refused(monkeypatch):
    read = plumbing._admissible_triple_bundle

    def forging(v1, v2, v3, c, m23):
        bundle, flipped = read(v1, v2, v3, c, m23)
        return _forge(bundle), flipped

    monkeypatch.setattr(plumbing, "_admissible_triple_bundle", forging)
    # L(5,2) read as L(5,3); S^1 x S^2 with euler 4 read as euler 5
    for triple in [((1, 0, 0), (0, 1, 0), (2, 3, 5)), ((1, 0, 0), (0, 1, 0), (-1, 4, 0))]:
        with pytest.raises(PlumbingRelationError, match="inconsistent with the triple"):
            triple_to_bundle(*triple)
        with pytest.raises(PlumbingRelationError, match="inconsistent with the triple"):
            decompose_component(triple)


def test_forged_reading_with_integral_vector_fails_det3(monkeypatch):
    # (e1, e2, (1, 0, 2, 2)) is over L(2,1); read as S^3 its plumbing vector
    # (1, 0, 2, 2) is integral and primitive, and only Det_3 = 2 refuses it
    triple = ((1, 0, 0, 0), (0, 1, 0, 0), (1, 0, 2, 2))
    assert triple_to_bundle(*triple).qrp == (1, 0, 2)
    monkeypatch.setattr(
        plumbing,
        "_admissible_triple_bundle",
        lambda v1, v2, v3, c, m23: (Bundle.from_qrp(0, 0, 1, 1), False),
    )
    with pytest.raises(PlumbingRelationError, match="Det_3 = 2"):
        triple_to_bundle(*triple)
    with pytest.raises(PlumbingRelationError, match="Det_3 = 2"):
        decompose_component(triple)


# ----------------------------------------------------------------------
# plumbing_vector


def test_plumbing_vector_bad_plumbings_figure():
    assert plumbing_vector((0, 1, 0), (2, 3, 5), (11, 9, 24), 3, 2, 7) == (1, 0, 2)
    assert plumbing_vector((0, 1, 0), (2, 3, 5), (-3, 9, -11), 3, 2, 7) == (-1, 0, -3)


def test_plumbing_vector_zero_for_ring():
    assert plumbing_vector((1, 0, 0), (0, 1, 0), (1, 5, 0), 1, 5, 0) == (0, 0, 0)


def test_plumbing_vector_divisibility_failure():
    with pytest.raises(PlumbingRelationError):
        plumbing_vector((0, 1, 0), (2, 3, 5), (11, 9, 25), 3, 2, 7)


def test_plumbing_vector_checks_a_dependent_datum():
    # p = 0 needs w_i2 = q w_i + r w_i1 exactly, as p != 0 needs divisibility
    with pytest.raises(PlumbingRelationError, match="does not vanish for p = 0"):
        plumbing_vector((1, 0, 0), (0, 1, 0), (5, 5, 5), 1, 0, 0)
    with pytest.raises(PlumbingRelationError, match="does not vanish for p = 0"):
        plumbing_vector((1, 0, 0), (0, 1, 0), (1, 5, 0), 1, 4, 0)
    assert plumbing_vector((2, 1, 0), (1, 1, 0), (3, 2, 0), 1, 1, 0) == (0, 0, 0)
    with pytest.raises(ValueError, match="ragged columns"):
        plumbing_vector((1, 0, 0), (0, 1, 0), (1, 5), 1, 5, 0)


# ----------------------------------------------------------------------
# decompose / compose


def test_decompose_figure4_component():
    tp = decompose_component([(1, 0, 0), (0, 1, 0), (2, 1, 5), (2, 1, 4)])
    assert [b.to_json_dict() for b in tp.bundles] == [
        {"base": "L(5,2)", "p": 5, "q": 2, "euler": 1, "torus_factor": 0},
        {"base": "L(2,1)", "p": 2, "q": 1, "euler": 0, "torus_factor": 0},
    ]
    assert tp.plumbing_vectors == ((1, 0, 2),)


def test_decompose_rejects_float_entries():
    # int() used to truncate 1.9 to 1 and decompose (1, 0, 0) in silence
    with pytest.raises(TypeError, match="entries must be integers"):
        decompose_component([(1.9, 0, 0), (0, 1, 0), (2, 1, 5)])


def test_decompose_refuses_an_inadmissible_pair():
    # the gate of each pair, the first one and a later one, raises before
    # its triple is read
    for chain, d in [([(1, 0, 0), (1, 2, 0), (0, 0, 1)], 2),
                     ([(1, 0, 0), (0, 1, 0), (0, 2, 4)], 4),
                     ([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (3, 0, 0, 3)], 3)]:
        with pytest.raises(InadmissibleCornerError) as info:
            decompose_component(chain)
        assert str(info.value) == f"a corner is inadmissible (Det_2 = {d})"
        assert info.value.det2 == d


def test_decompose_trivial_s3_chain_e4():
    tp = decompose_component(
        [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    )
    assert all(b.base == "S3" and b.euler == 0 for b in tp.bundles)
    assert tp.plumbing_vectors == ((0, 0, 0, 1),)


def test_decompose_trivial_s3_chain_e1():
    tp = decompose_component(
        [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 0, 0, 0)]
    )
    assert all(b.base == "S3" and b.euler == 0 for b in tp.bundles)
    assert tp.plumbing_vectors == ((1, 0, 0, 0),)


def test_plumbing_to_rods_bad_plumbing_figure():
    rods = plumbing_to_rods([Bundle.from_qrp(2, 3, 5, 0), Bundle.from_qrp(3, 2, 7, 0)], [(1, 0, 2)])
    assert rods == [(1, 0, 0), (0, 1, 0), (2, 3, 5), (11, 9, 24)]


def test_plumbing_to_rods_single_ring():
    rods = plumbing_to_rods([Bundle.from_qrp(1, -4, 0, 1)], [])
    assert rods == [(1, 0, 0, 0), (0, 1, 0, 0), (1, -4, 0, 0)]


def test_roundtrip_identity_random():
    rng = random.Random(42)
    for _ in range(150):
        n = rng.randint(3, 5)
        length = rng.randint(3, 6)
        chain = rand_admissible_chain(rng, n, length)
        tp = decompose_component(chain)
        rods = plumbing_to_rods(tp.bundles, tp.plumbing_vectors)
        assert tuple(rods) == tp.rods_hnf
        tp2 = decompose_component(rods)
        assert tp2.bundles == tp.bundles
        assert tp2.plumbing_vectors == tp.plumbing_vectors
        assert tp2.rods_hnf == tp.rods_hnf


def test_decomposition_coordinate_independent():
    rng = random.Random(43)
    for _ in range(80):
        n = rng.randint(3, 5)
        chain = rand_admissible_chain(rng, n, rng.randint(3, 5))
        Q = rand_unimodular(rng, n)
        tp1 = decompose_component(chain)
        tp2 = decompose_component([Q @ v for v in chain])
        assert tp1.bundles == tp2.bundles
        assert tp1.plumbing_vectors == tp2.plumbing_vectors


def _reference_decompose(structures):
    """decompose_component with its former per-triple sign fix: the whole
    run's Hermite form, then Det_3 of the reduced triple, then the pair's
    transformation matrix.  Returns the plumbing and the flipped indices."""
    vs = [list(v) for v in structures]
    flipped = []
    for i in range(len(vs) - 2):
        W = hermite_normal_form(IntMatrix.from_columns(vs)).H.columns()
        w1, w2, w3 = W[i], W[i + 1], W[i + 2]
        if determinant_divisor(IntMatrix.from_columns([w1, w2, w3]), 3) == 0:
            a = (hermite_normal_form(IntMatrix.from_columns([w1, w2])).Q @ w3)[0]
            assert a in (1, -1)
            if a == -1:
                vs[i + 2] = [-x for x in vs[i + 2]]
                flipped.append(i + 2)
    W = hermite_normal_form(IntMatrix.from_columns(vs)).H.columns()
    bundles, vectors = [], []
    for i in range(len(vs) - 2):
        bundle = _hermite_triple_bundle(W[i], W[i + 1], W[i + 2])[0]
        bundles.append(bundle)
        if i > 0:
            vectors.append(plumbing_vector(W[i], W[i + 1], W[i + 2], *bundle.qrp))
    return ToricPlumbing(tuple(bundles), tuple(vectors), tuple(W)), flipped


def _chain_with_dependent_triples(rng, n, length):
    """Admissible chain where most triples are dependent,
    v_{i+2} = +-v_i + b v_{i+1}, with the sign of every vector scrambled."""
    chain = [rand_primitive(rng, n)]
    chain.append(rand_admissible_next(rng, chain[0]))
    while len(chain) < length:
        if rng.random() < 0.7:
            a, b = rng.choice((1, -1)), rng.randint(-2, 2)
            chain.append(tuple(a * x + b * y for x, y in zip(chain[-2], chain[-1])))
        else:
            chain.append(rand_admissible_next(rng, chain[-1]))
    signs = [rng.choice((1, -1)) for _ in chain]
    return [tuple(s * x for x in v) for s, v in zip(signs, chain)]


def _preflip_decompose(structures):
    """decompose_component with its former input pre-flip: Det_3 of every
    input triple, the coefficient a of a dependent one from the pair's
    Hermite transformation, a = -1 negating the input structure, and then
    the Hermite form of the flipped run."""
    vs = [list(v) for v in structures]
    for i in range(len(vs) - 2):
        v1, v2, v3 = vs[i], vs[i + 1], vs[i + 2]
        if determinant_divisor(IntMatrix.from_columns([v1, v2, v3]), 3) == 0:
            a = (hermite_normal_form(IntMatrix.from_columns([v1, v2])).Q @ v3)[0]
            assert a in (1, -1)
            if a == -1:
                vs[i + 2] = [-x for x in v3]
    W = hermite_normal_form(IntMatrix.from_columns(vs)).H.columns()
    bundles, vectors = [], []
    for i in range(len(vs) - 2):
        bundle = _hermite_triple_bundle(W[i], W[i + 1], W[i + 2])[0]
        bundles.append(bundle)
        if i > 0:
            vectors.append(plumbing_vector(W[i], W[i + 1], W[i + 2], *bundle.qrp))
    return ToricPlumbing(tuple(bundles), tuple(vectors), tuple(W))


def test_sign_rule_on_hermite_form_matches_input_preflip():
    rng = random.Random(53)
    signs = {1: 0, -1: 0}
    for _ in range(1000):
        chain = _chain_with_dependent_triples(rng, rng.randint(3, 6), rng.randint(3, 9))
        for u, v, w in zip(chain, chain[1:], chain[2:]):
            if determinant_divisor(IntMatrix.from_columns([u, v, w]), 3) == 0:
                signs[_reads_q(u, v, w)] += 1
        assert decompose_component(chain) == _preflip_decompose(chain)
    # dependent input triples of both signs occur often
    assert min(signs.values()) >= 500


def test_one_pass_sign_fix_matches_per_triple_reference():
    rng = random.Random(49)
    runs_with_flips = cascades = 0
    for _ in range(200):
        chain = _chain_with_dependent_triples(rng, rng.randint(3, 4), rng.randint(3, 12))
        expected, flipped = _reference_decompose(chain)
        assert decompose_component(chain) == expected
        runs_with_flips += bool(flipped)
        cascades += any(j + 1 in flipped for j in flipped)
    # the a = -1 branch, and flips following flips, are both exercised
    assert runs_with_flips >= 100
    assert cascades >= 50


def test_decompose_reads_each_triple_once(monkeypatch):
    widths = []
    det3_calls = []

    def counting_hermite(A):
        widths.append(A.cols)
        return hermite_normal_form(A)

    def counting_det3(m12, vec):
        det3_calls.append(vec)
        return det3(m12, vec)

    det3 = plumbing._det3
    monkeypatch.setattr(plumbing, "hermite_normal_form", counting_hermite)
    monkeypatch.setattr(plumbing, "_det3", counting_det3)
    rng = random.Random(50)
    dependent = {1: 0, -1: 0}
    for length in (20, 40):
        for _ in range(4):
            chain = _chain_with_dependent_triples(rng, 4, length)
            for u, v, w in zip(chain, chain[1:], chain[2:]):
                if determinant_divisor(IntMatrix.from_columns([u, v, w]), 3) == 0:
                    dependent[_reads_q(u, v, w)] += 1
            widths.clear()
            det3_calls.clear()
            tp = decompose_component(chain)
            # the run's own form is the only normal form: every triple is
            # read off minors, and no pair form decides a sign
            assert widths == [length]
            # Det_3 only for the plumbing vector of each p != 0 bundle,
            # which also certifies that triple's reading
            assert len(det3_calls) == sum(b.qrp[2] != 0 for b in tp.bundles)
            widths.clear()
            det3_calls.clear()
            W = tp.rods_hnf
            read = [triple_to_bundle(*W[i : i + 3]) for i in range(length - 2)]
            # the public reader computes no normal form either, and takes
            # the same one Det_3 per p != 0 triple as its certificate
            assert read == list(tp.bundles)
            assert widths == []
            assert len(det3_calls) == sum(b.qrp[2] != 0 for b in tp.bundles)
    # the input triples present dependent rods with both signs
    assert min(dependent.values()) >= 20


def _reads_q(u, v, w):
    """The coefficient q = +-1 of u in w = q u + r v, for a dependent
    admissible triple."""
    res = hermite_normal_form(IntMatrix.from_columns([u, v, w]))
    return res.H.column(2)[0]


def test_decompose_takes_each_pair_dual_once(monkeypatch):
    calls = []
    pair_dual = plumbing._pair_dual

    def counting_pair_dual(v, w):
        calls.append((v, w))
        return pair_dual(v, w)

    def forbidden(*args):
        raise AssertionError("the certificates already prove what this re-derives")

    monkeypatch.setattr(plumbing, "_pair_dual", counting_pair_dual)
    for name in ("det2", "_run_recursion", "_relation_diagnostics"):
        monkeypatch.setattr(plumbing, name, forbidden, raising=False)
    rng = random.Random(52)
    chains = [rand_admissible_chain(rng, 4, length) for length in (3, 10, 40)]
    flipping = _chain_with_dependent_triples(rng, 4, 40)
    W = hermite_normal_form(IntMatrix.from_columns(flipping)).H.columns()
    for chain in chains + [flipping]:
        calls.clear()
        tp = decompose_component(chain)
        # one (Det_2, dual) per pair of the run's Hermite form: Det_2 is
        # the same there as on the input pair, and each dual serves the
        # triple its pair starts
        assert len(calls) == len(chain) - 1
    # the last chain takes the sign flip of a dependent triple
    assert tp.rods_hnf != tuple(W)


def test_plumbing_to_rods_takes_each_det2_and_det3_once(monkeypatch):
    det2_calls = []
    dual_calls = []
    det3_calls = []

    def counting_det2(v, w):
        det2_calls.append((v, w))
        return det2(v, w)

    def counting_pair_dual(v, w):
        dual_calls.append((v, w))
        return pair_dual(v, w)

    def counting_det3(m12, vec):
        det3_calls.append(vec)
        return det3(m12, vec)

    pair_dual, det3 = plumbing._pair_dual, plumbing._det3
    tp = decompose_component(rand_admissible_chain(random.Random(53), 4, 40))
    assert all(b.qrp[2] != 0 for b in tp.bundles)
    monkeypatch.setattr(plumbing, "det2", counting_det2, raising=False)
    monkeypatch.setattr(plumbing, "_pair_dual", counting_pair_dual)
    monkeypatch.setattr(plumbing, "_det3", counting_det3)
    assert plumbing_to_rods(tp.bundles, tp.plumbing_vectors) == list(tp.rods_hnf)
    # one minor table per generated pair and one Det_3 per plumbing
    # vector; the read-back reuses both
    assert det2_calls == []
    assert len(dual_calls) == 39
    assert len(det3_calls) == 38


def test_det3_from_pair_minors_matches_oracle():
    # the certificate, expanded along the vector's column over the pair's
    # minors, is the gcd of the real 3 x 3 minors of [v1 v2 x], here by
    # the independent cofactor oracle
    rng = random.Random(55)
    built = {0: 0, 2: 0, 3: 0}
    for n in (3, 4, 5, 6):
        cases = [[tuple(rng.randint(-6, 6) for _ in range(n)) for _ in range(3)]
                 for _ in range(60)]
        for d in built:
            # U [e1 e2 (a, b, d, 0, ...)] has Det_3 = d for unimodular U
            U = rand_unimodular(rng, n)
            x = (rng.randint(-3, 3), rng.randint(-3, 3), d) + (0,) * (n - 3)
            cases.append([U @ tuple(int(i == j) for i in range(n)) for j in (0, 1)] + [U @ x])
        for v1, v2, x in cases:
            expected = minor_gcd(IntMatrix.from_columns([v1, v2, x]), 3)
            assert plumbing._det3(plumbing._pair_dual(v1, v2)[2], x) == expected
        for d in built:
            built[d] += sum(minor_gcd(IntMatrix.from_columns(c), 3) == d for c in cases[-3:])
    assert built == {0: 4, 2: 4, 3: 4}
    with pytest.raises(ValueError, match="k = 3 out of range for a 2 x 3 matrix"):
        plumbing_vector((1, 0), (0, 1), (2, 3), 1, 1, 1)


def test_round_trip_takes_no_matrix_per_triple(monkeypatch):
    built = []
    init, trusted = IntMatrix.__init__, IntMatrix._trusted.__func__

    def counting_init(matrix, entries):
        built.append(matrix)
        init(matrix, entries)

    def counting_trusted(cls, rows):
        built.append(rows)
        return trusted(cls, rows)

    def forbidden(*args):
        raise AssertionError("the minor tables give every Det_2 and Det_3")

    monkeypatch.setattr(IntMatrix, "__init__", counting_init)
    monkeypatch.setattr(IntMatrix, "_trusted", classmethod(counting_trusted))
    for name in ("determinant_divisor", "det2"):
        monkeypatch.setattr(plumbing, name, forbidden, raising=False)
    rng = random.Random(56)
    counts = {}
    for length in (10, 40):
        for kind, chain in enumerate([rand_admissible_chain(rng, 4, length),
                                      _chain_with_dependent_triples(rng, 4, length)]):
            built.clear()
            tp = decompose_component(chain)
            assert plumbing_to_rods(tp.bundles, tp.plumbing_vectors) == list(tp.rods_hnf)
            counts.setdefault(kind, set()).add(len(built))
    # the run's Hermite form and the read-back's shape check build the
    # same matrices at every length: no triple builds one
    assert all(len(c) == 1 for c in counts.values())


def _public_read_back(rods, i, bundle, vec, first, second, d3):
    return triple_to_bundle(*rods[i : i + 3])


def test_read_back_matches_the_public_reader(monkeypatch):
    # valid and corrupted (bundles, vectors): reusing Det_2, the
    # recursion's vector and its Det_3 in the read-back leaves every
    # diagnostic, detail string and raised error as the public reader
    # gives them
    rng = random.Random(54)
    cases = []
    for trial in range(600):
        n = rng.randint(3, 5)
        tp = decompose_component(rand_admissible_chain(rng, n, rng.randint(3, 8)))
        bundles, vecs = list(tp.bundles), [list(v) for v in tp.plumbing_vectors]
        if trial % 3 == 1 and vecs:
            rng.choice(vecs)[rng.randrange(n)] += rng.choice([-2, -1, 1, 2])
        elif trial % 3 == 2:
            i = rng.randrange(len(bundles))
            q, r, p = bundles[i].qrp
            bundles[i] = Bundle.from_qrp(q, r + 1 if p == 0 else (r + 1) % p, p, n - 3)
        cases.append((bundles, [tuple(v) for v in vecs]))

    def outcomes():
        got = []
        for bundles, vecs in cases:
            try:
                got.append(verify_plumbing_relations(bundles, vecs))
            except PlumbingRelationError as e:
                got.append(str(e))
        return got

    fast = outcomes()
    monkeypatch.setattr(plumbing, "_read_back", _public_read_back)
    assert fast == outcomes()
    diags = [d for d in fast if not isinstance(d, str)]
    for d in diags:
        checks = d.checks
        assert d.ok == all(c.ok for c in checks)
        assert d.first_failure == next((c for c in checks if not c.ok), None)
    assert sum(not d.ok for d in diags) >= 100
    roundtrip = [d.checks[-1] for d in diags]
    assert sum(c.ok for c in roundtrip) >= 200
    assert sum("reads back as" in c.detail for c in roundtrip) >= 50
    assert sum("corner is inadmissible" in c.detail for c in roundtrip) >= 10


def _counting_hermite(monkeypatch):
    """Record the width of every Hermite form computed from here on, also
    those that intlin computes for itself."""
    widths = []
    real = intlin.hermite_normal_form

    def counting(A):
        widths.append(A.cols)
        return real(A)

    monkeypatch.setattr(plumbing, "hermite_normal_form", counting)
    monkeypatch.setattr(intlin, "hermite_normal_form", counting)
    return widths


def test_round_trip_computes_one_hermite_form(monkeypatch):
    widths = _counting_hermite(monkeypatch)
    rng = random.Random(55)
    for length in (3, 10, 40):
        for _ in range(5):
            chain = rand_admissible_chain(rng, 4, length)
            assert hermite_pivots(IntMatrix.from_columns(chain)) is None
            widths.clear()
            tp = decompose_component(chain)
            # a chain not yet in Hermite form takes exactly its own
            assert widths == [length]
            widths.clear()
            diag = verify_plumbing_relations(tp.bundles, tp.plumbing_vectors)
            assert diag.ok
            # the hermite_form check reads the shape; no normal form
            assert widths == []
            assert decompose_component(tp.rods_hnf) == tp
            # a run already in Hermite form is taken as it is
            assert widths == []
            widths.clear()
            tp2 = decompose_component(plumbing_to_rods(tp.bundles, tp.plumbing_vectors))
            decompose_component(chain)
            # so a whole round trip computes one normal form, of width L
            assert widths == [length]
            assert tp2 == tp


def test_reading_the_verdict_formats_no_detail(monkeypatch):
    tp = decompose_component(rand_admissible_chain(random.Random(56), 4, 20))
    built = []
    relation_check = plumbing._relation_check

    def counting(*record):
        built.append(record[0])
        return relation_check(*record)

    monkeypatch.setattr(plumbing, "_relation_check", counting)
    diag = verify_plumbing_relations(tp.bundles, tp.plumbing_vectors)
    assert diag.ok and diag.first_failure is None
    assert plumbing_to_rods(tp.bundles, tp.plumbing_vectors) == list(tp.rods_hnf)
    assert decompose_component(tp.rods_hnf) == tp
    assert built == []
    # every check is still recorded, and formatted once it is read
    checks = diag.checks
    assert [c.name for c in checks] == built
    assert built[-2:] == ["hermite_form", "bundle_roundtrip"]


def test_decompose_checks_agree_with_full_verification():
    rng = random.Random(51)
    for _ in range(200):
        n = rng.randint(3, 5)
        chain = rand_admissible_chain(rng, n, rng.randint(3, 10))
        tp = decompose_component(chain)
        # what the decomposition's certificates prove, the full check
        # confirms: every relation holds and the recursion regenerates W
        diag = verify_plumbing_relations(tp.bundles, tp.plumbing_vectors)
        assert diag.ok
        assert diag.rods == tp.rods_hnf
        assert decompose_component(tp.rods_hnf) == tp


def test_det3_identity_for_nonzero_vectors():
    rng = random.Random(44)
    for _ in range(80):
        n = rng.randint(3, 5)
        chain = rand_admissible_chain(rng, n, rng.randint(3, 6))
        tp = decompose_component(chain)
        rods = tp.rods_hnf
        for i, vec in enumerate(tp.plumbing_vectors, start=2):
            if all(x == 0 for x in vec):
                continue
            d3 = determinant_divisor(
                IntMatrix.from_columns([rods[i - 1], rods[i], vec]), 3
            )
            assert d3 == 1


def test_bundle_torus_factor_and_euler_number_are_ints():
    # a negative factor used to give a plumbing of structures in Z^2
    for torus in (-1, 1.0, "1", None):
        with pytest.raises(ValueError, match=f"torus factor must be an int >= 0, got {torus!r}"):
            Bundle.from_qrp(0, 0, 1, torus)
    assert Bundle.from_qrp(0, 0, 1, 0).torus_factor == 0
    # the euler number too is an integer, so the generated rods are
    with pytest.raises(TypeError, match="euler number must be an int, got 0.5"):
        Bundle.from_qrp(1, 0.5, 0, 0)


def test_bundles_share_one_torus_factor():
    # mismatched factors used to read as Det_2(w_3, w_4) = 0
    bundles = [Bundle.from_qrp(0, 0, 1, 0), Bundle.from_qrp(0, 0, 1, 1), Bundle.from_qrp(1, 2, 0, 0)]
    message = "bundle 2 has torus factor 1 but bundle 1 has 0; all bundles must share one"
    with pytest.raises(ValueError, match=message):
        verify_plumbing_relations(bundles, [(0, 0, 1), (0, 0, 0)])
    with pytest.raises(ValueError, match=message):
        plumbing_to_rods(bundles, [(0, 0, 1), (0, 0, 0)])


def test_bundle_bounds():
    rng = random.Random(45)
    for _ in range(100):
        n = rng.randint(3, 5)
        chain = rand_admissible_chain(rng, n, 3)
        b = triple_to_bundle(*chain)
        q, r, p = b.qrp
        if p >= 1:
            from math import gcd

            assert 0 <= q < p or (p == 1 and q == 0)
            assert 0 <= r < p or (p == 1 and r == 0)
            assert gcd(q, p) == 1 or p == 1
        else:
            assert q == 1


# ----------------------------------------------------------------------
# relation diagnostics


def test_relations_figure4_pass():
    diag = verify_plumbing_relations(
        [Bundle.from_qrp(2, 1, 5, 0), Bundle.from_qrp(1, 0, 2, 0)], [(1, 0, 2)]
    )
    assert diag.ok
    assert diag.rods == ((1, 0, 0), (0, 1, 0), (2, 1, 5), (2, 1, 4))


def test_relations_nonprimitive_vector_fails():
    diag = verify_plumbing_relations([L52_E3, L73_E2], [(2, 0, 4)])
    assert not diag.ok
    assert diag.first_failure.name == "vector_primitive"


def test_relations_variant_vector_is_also_valid():
    # (1,0,3) with the L(5,2)/L(7,3) bundles generates rods
    # {e1, e2, (2,3,5), (11,9,31)}: running the recursion and checking
    # Det_2 / primitivity / Hermite form directly shows every relation
    # holds, so this is simply a third valid plumbing of the same bundles,
    # distinct from (1,0,2) and (-1,0,-3).
    rods, _ = _oracle_recursion([L52_E3, L73_E2], [(1, 0, 3)])
    assert rods[3] == (11, 9, 31)
    assert _oracle_relations_ok(rods)
    diag = verify_plumbing_relations([L52_E3, L73_E2], [(1, 0, 3)])
    assert diag.ok
    assert decompose_component(rods).plumbing_vectors == ((1, 0, 3),)


def _oracle_recursion(bundles, vectors):
    n = bundles[0].torus_factor + 3
    vecs = [(0,) * n]
    q1, r1, p1 = bundles[0].qrp
    if p1 != 0:
        vecs[0] = tuple(1 if i == 2 else 0 for i in range(n))
    vecs += [tuple(v) for v in vectors]
    w = [tuple(1 if i == 0 else 0 for i in range(n)), tuple(1 if i == 1 else 0 for i in range(n))]
    for i, b in enumerate(bundles):
        q, r, p = b.qrp
        w.append(
            tuple(
                q * a + r * bb + p * c
                for a, bb, c in zip(w[i], w[i + 1], vecs[i])
            )
        )
    return w, vecs


def _oracle_relations_ok(rods):
    from math import gcd

    for a, b in zip(rods, rods[1:]):
        if determinant_divisor(IntMatrix.from_columns([a, b]), 2) != 1:
            return False
    for w in rods:
        g = 0
        for x in w:
            g = gcd(g, x)
        if g != 1:
            return False
    mat = IntMatrix.from_columns(rods)
    return hermite_normal_form(mat).H == mat


# one failing case per check: (name, bundles as (q, r, p), torus factor,
# plumbing vectors, index, the check's detail text)
FAILING_CHECKS = [
    ("zero_vector_rule", [(0, 0, 1), (1, 3, 0)], 0, [(0, 0, 2)], 2,
     "p_2 = 0 so the plumbing vector must vanish, got (0, 0, 2)"),
    ("vector_primitive", [(2, 1, 3), (0, 0, 1)], 0, [(5, 0, 5)], 2,
     "plumbing vector (5, 0, 5)"),
    ("pair_admissible", [(0, 0, 1), (0, 0, 1)], 0, [(3, 3, -2)], 2,
     "Det_2(w_3, w_4) = 3"),
    ("triple_primitive", [(0, 0, 1), (0, 0, 1)], 0, [(2, 5, 0)], 2,
     "Det_3(w_2, w_3, p_2) = 2"),
    ("zeros_rule", [(0, 0, 1), (0, 0, 1)], 2, [(0, 0, 0, 0, 1)], 2,
     "earlier vectors vanish from entry 4; p_2 = (0, 0, 0, 0, 1)"),
    ("pivot_rule", [(0, 0, 1), (0, 0, 1)], 1, [(7, 9, 9, 8)], 2,
     "w_4 = (7, 9, 9, 8), pivot position 4"),
    ("hermite_form", [(0, 0, 1), (0, 0, 1)], 1, [(7, 9, 9, 8)], -1,
     "generated rod structures must already be in Hermite normal form"),
    ("bundle_roundtrip", [(0, 0, 1), (0, 0, 1)], 0, [(2, 5, 0)], -1,
     "triple 2 reads back as {'base': 'L(2,1)', 'p': 2, 'q': 1, 'euler': 0, 'torus_factor': 0}"),
    ("bundle_roundtrip", [(0, 0, 1), (0, 0, 1)], 0, [(3, 3, -2)], -1,
     "second corner is inadmissible (Det_2 = 3)"),
]


@pytest.mark.parametrize("name, qrps, torus, vectors, index, detail", FAILING_CHECKS)
def test_relation_check_details(name, qrps, torus, vectors, index, detail):
    bundles = [Bundle.from_qrp(*qrp, torus) for qrp in qrps]
    diag = verify_plumbing_relations(bundles, vectors)
    check = next(c for c in diag.checks if c.name == name and c.index == index)
    assert not check.ok
    assert check.detail == detail
    entry = {"name": name, "index": index, "ok": False, "detail": detail}
    assert entry in diag.to_json_dict()["checks"]
    bad = diag.first_failure
    with pytest.raises(PlumbingRelationError) as info:
        plumbing_to_rods(bundles, vectors)
    assert str(info.value) == f"{bad.name} fails at index {bad.index}: {bad.detail}"


def test_relation_failure_message():
    with pytest.raises(PlumbingRelationError) as info:
        plumbing_to_rods([Bundle.from_qrp(0, 0, 1, 0)] * 2, [(2, 5, 0)])
    assert str(info.value) == "triple_primitive fails at index 2: Det_3(w_2, w_3, p_2) = 2"


def test_relations_all_outcomes_reported():
    diag = verify_plumbing_relations([L52_E3, L73_E2], [(2, 0, 4)])
    names = {c.name for c in diag.checks}
    assert {"vector_primitive", "pair_admissible", "hermite_form"} <= names


def test_plumbing_to_rods_raises_on_violation():
    with pytest.raises(PlumbingRelationError):
        plumbing_to_rods([L52_E3, L73_E2], [(2, 0, 4)])


# ----------------------------------------------------------------------
# DOC decomposition


def figure4_diagram():
    return RodDiagram(
        3,
        "half_plane",
        [
            Rod.axis((1, 0, 0)),
            Rod.axis((0, 1, 0)),
            Rod.axis((2, 1, 5)),
            Rod.axis((2, 1, 4)),
            Rod.horizon(),
            Rod.axis((1, 1, 0)),
            Rod.axis((4, 5, 0)),
            Rod.horizon(),
            Rod.axis((0, 0, 1)),
            Rod.horizon(),
            Rod.axis((0, 0, 1)),
        ],
    )


def test_doc_decomposition_figure4():
    doc = doc_decomposition(figure4_diagram())
    assert (doc.J, doc.N1, doc.N2) == (1, 1, 1)
    kinds = [p.kind for p in doc.pieces]
    assert kinds == ["toric_plumbing", "corner_ball", "cylinder", "end"]
    plumb = doc.pieces[0].plumbing
    assert [b.base_display() for b in plumb.bundles] == ["L(5,2)", "L(2,1)"]
    assert [b.euler for b in plumb.bundles] == [1, 0]
    assert plumb.plumbing_vectors == ((1, 0, 2),)
    assert doc.pieces[1].display() == "B^4 x S^1"
    assert doc.pieces[2].display() == "[0,1] x D^2 x T^2"
    assert doc.pieces[3].display() == "R+ x S^3 x S^1"


def test_doc_decomposition_end_only():
    d = RodDiagram(
        3,
        "half_plane",
        [Rod.axis((1, 0, 0)), Rod.horizon(), Rod.axis((0, 1, 0))],
    )
    doc = doc_decomposition(d)
    assert (doc.J, doc.N1, doc.N2) == (0, 0, 0)
    assert [p.kind for p in doc.pieces] == ["end"]


def test_doc_decomposition_covers_every_axis_rod_once():
    rng = random.Random(46)
    for _ in range(60):
        n = rng.randint(3, 5)
        d = _random_half_plane(rng, n)
        doc = doc_decomposition(d)
        seen = []
        for p in doc.pieces:
            seen.extend(p.source_rod_indices)
        assert sorted(seen) == d.axis_indices()


def test_inadmissible_corner_rejected_by_every_diagram_stage():
    # each stage keeps its own exception type and message, byte for byte
    diagram = parse(json.dumps(INADMISSIBLE_CORNER))
    disk = RodDiagram(2, "disk", [Rod.axis((1, 0)), Rod.axis((1, 2)), Rod.axis((0, 1))])
    corner = "corner between rods 0 and 1 is inadmissible (Det_2 = 2)"
    stages = [
        (lambda: doc_decomposition(diagram), InadmissibleCornerError, corner),
        (lambda: compactify(diagram), ValueError,
         corner + "; only manifold diagrams can be compactified"),
        (lambda: build_model_map(diagram), ModelMapError, corner),
        (lambda: classify(disk, spin=False), ClassifyError, corner),
    ]
    for stage, error, message in stages:
        with pytest.raises(error) as info:
            stage()
        assert type(info.value) is error
        assert str(info.value) == message
        if error is InadmissibleCornerError:
            assert info.value.det2 == 2


def test_doc_decomposition_requires_n3():
    d = RodDiagram(
        2, "half_plane", [Rod.axis((1, 0)), Rod.horizon(), Rod.axis((0, 1))]
    )
    with pytest.raises(ValueError):
        doc_decomposition(d)


def _random_half_plane(rng, n, max_events=6):
    """Random valid half-plane diagram with admissible corners."""
    from rodtopo.roddiagram import RodStructure
    from helpers import rand_admissible_next, rand_primitive

    rods = [Rod.axis(rand_primitive(rng, n))]
    for _ in range(rng.randint(0, max_events)):
        prev = rods[-1].structure.v if rods[-1].is_axis else None
        if prev is not None and rng.random() < 0.5:
            rods.append(Rod.horizon())
        else:
            if prev is None:
                # after a horizon anything primitive goes, equal included
                if rng.random() < 0.3:
                    last_axis = next(r for r in reversed(rods) if r.is_axis)
                    rods.append(Rod.axis(last_axis.structure.v))
                else:
                    rods.append(Rod.axis(rand_primitive(rng, n)))
            else:
                nxt = rand_admissible_next(rng, prev)
                rods.append(Rod.axis(nxt))
    if not rods[-1].is_axis:
        rods.append(Rod.axis(rand_primitive(rng, n)))
    return RodDiagram(n, "half_plane", rods)
