import random

import pytest

from rodtopo import plumbing
from rodtopo.errors import InadmissibleCornerError, PlumbingRelationError
from rodtopo.intlin import IntMatrix, determinant_divisor, hermite_normal_form
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
from rodtopo.roddiagram import Rod, RodDiagram, det2

from helpers import (
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
    with pytest.raises(InadmissibleCornerError):
        triple_to_bundle((1, 0, 0), (0, 1, 0), (0, 2, 4))


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
        bundle = triple_to_bundle(W[i], W[i + 1], W[i + 2])
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

    def counting_divisor(A, k):
        det3_calls.append(k)
        return determinant_divisor(A, k)

    monkeypatch.setattr(plumbing, "hermite_normal_form", counting_hermite)
    monkeypatch.setattr(plumbing, "determinant_divisor", counting_divisor)
    rng = random.Random(50)
    for length in (20, 40):
        for _ in range(4):
            widths.clear()
            det3_calls.clear()
            decompose_component(rand_admissible_chain(rng, 4, length))
            l = length - 2
            # the run's own form, and one 3-column form per triple
            assert sum(w > 3 for w in widths) == 1
            assert widths.count(3) == l
            # the sign fix, and one plumbing vector per triple
            assert det3_calls.count(3) <= 2 * l


def test_decompose_takes_each_det2_once(monkeypatch):
    calls = []

    def counting_det2(v, w):
        calls.append((v, w))
        return det2(v, w)

    monkeypatch.setattr(plumbing, "det2", counting_det2)
    rng = random.Random(52)
    for length in (3, 10, 40):
        chain = rand_admissible_chain(rng, 4, length)
        calls.clear()
        decompose_component(chain)
        # one per input pair; Det_2 is the same on every pair of the
        # run's Hermite form
        assert len(calls) == length - 1


def test_decompose_checks_agree_with_full_verification(monkeypatch):
    built = []
    relation_diagnostics = plumbing._relation_diagnostics

    def recording(*args):
        built.append(relation_diagnostics(*args))
        return built[-1]

    monkeypatch.setattr(plumbing, "_relation_diagnostics", recording)
    rng = random.Random(51)
    for _ in range(200):
        n = rng.randint(3, 5)
        chain = rand_admissible_chain(rng, n, rng.randint(3, 10))
        built.clear()
        tp = decompose_component(chain)
        # the decomposition built its diagnostics once, from its own facts
        assert len(built) == 1
        diag = verify_plumbing_relations(tp.bundles, tp.plumbing_vectors)
        assert diag.ok
        assert diag.rods == tp.rods_hnf
        assert diag == built[0]


def test_decompose_verifies_in_full_when_rods_are_not_regenerated(monkeypatch):
    run_recursion = plumbing._run_recursion
    verified = []

    def off_by_one(bundles, vectors):
        rods, vecs = run_recursion(bundles, vectors)
        last = tuple(x + (j == 0) for j, x in enumerate(rods[-1]))
        return rods[:-1] + (last,), vecs

    def counting_verify(bundles, vectors):
        verified.append(len(bundles))
        return verify_plumbing_relations(bundles, vectors)

    monkeypatch.setattr(plumbing, "_run_recursion", off_by_one)
    monkeypatch.setattr(plumbing, "verify_plumbing_relations", counting_verify)
    with pytest.raises(PlumbingRelationError, match="does not regenerate the Hermite-form rods"):
        decompose_component([(1, 0, 0), (0, 1, 0), (2, 1, 5), (2, 1, 4)])
    # the mismatch alone decides: no full verification runs
    assert verified == []


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
