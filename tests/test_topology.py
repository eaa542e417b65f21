import json
import random
from pathlib import Path

import pytest

from rodtopo import intlin, roddiagram, topology
from rodtopo.errors import ClassifyError, CompactifyError, RodTopoError
from rodtopo.intlin import (
    IntMatrix,
    determinant_divisor,
    hermite_normal_form,
    is_primitive_vector,
    smith_normal_form,
)
from rodtopo.roddiagram import Rod, RodDiagram, asymptotic_end, det2, parse
from rodtopo.topology import (
    AbelianGroup,
    betti2,
    classify,
    compactify,
    end_pi1,
    fillin_path,
    fundamental_group,
    is_simply_connected,
)

from helpers import (
    INADMISSIBLE_CORNER,
    minor_gcd,
    normalize_sign,
    rand_admissible_half_plane,
    rand_primitive,
    rand_unimodular,
)

DIAGRAMS = Path(__file__).resolve().parent.parent / "diagrams"


def counterexample():
    return RodDiagram(
        2,
        "half_plane",
        [
            Rod.axis((1, 0)),
            Rod.horizon(),
            Rod.axis((0, 1)),
            Rod.horizon(),
            Rod.axis((1, 0)),
        ],
    )


# ----------------------------------------------------------------------
# fundamental groups


def test_pi1_counterexample_trivial():
    g = fundamental_group(counterexample())
    assert g.trivial
    assert g.display() == "0"
    assert is_simply_connected(counterexample())


def test_pi1_single_rod():
    d = RodDiagram(3, "half_plane", [Rod.axis((1, 0, 0))])
    g = fundamental_group(d)
    assert (g.free_rank, g.torsion) == (2, ())
    assert g.display() == "Z^2"
    assert not is_simply_connected(d)


def test_pi1_torsion():
    d = RodDiagram(2, "half_plane", [Rod.axis((1, 2)), Rod.axis((1, 0))])
    g = fundamental_group(d)
    assert (g.free_rank, g.torsion) == (0, (2,))
    assert g.display() == "Z_2"


def test_pi1_invariant_under_unimodular_and_permutation():
    rng = random.Random(20)
    for _ in range(60):
        n = rng.randint(2, 4)
        vs = [rand_primitive(rng, n) for _ in range(rng.randint(1, 5))]
        rods = []
        for v in vs:
            if rods:
                rods.append(Rod.horizon())
            rods.append(Rod.axis(v))
        try:
            d = RodDiagram(n, "half_plane", rods)
        except Exception:
            continue
        g = fundamental_group(d)
        Q = rand_unimodular(rng, n)
        perm = vs[:]
        rng.shuffle(perm)
        rods2 = []
        for v in perm:
            if rods2:
                rods2.append(Rod.horizon())
            rods2.append(Rod.axis(tuple(Q @ v)))
        try:
            d2 = RodDiagram(n, "half_plane", rods2)
        except Exception:
            continue
        assert fundamental_group(d2) == g


def test_end_pi1_counterexample():
    g = end_pi1(counterexample())
    assert (g.free_rank, g.torsion) == (1, ())
    assert g.display() == "Z"


def test_end_pi1_s3_end():
    d = RodDiagram(2, "half_plane", [Rod.axis((1, 0)), Rod.horizon(), Rod.axis((0, 1))])
    assert end_pi1(d) == AbelianGroup(0, ())


def test_end_pi1_lens_end_matches_two_rod_subdiagram():
    d = RodDiagram(
        3,
        "half_plane",
        [Rod.axis((1, 0, 0)), Rod.horizon(), Rod.axis((11, 9, 24))],
    )
    g = end_pi1(d)
    assert (g.free_rank, g.torsion) == (1, (3,))
    # oracle: pi_1 of the two-rod diagram with the horizon removed
    sub = RodDiagram(3, "half_plane", [Rod.axis((1, 0, 0)), Rod.axis((11, 9, 24))])
    assert fundamental_group(sub) == g


def test_end_pi1_random_matches_two_rod_subdiagram():
    rng = random.Random(21)
    for _ in range(80):
        n = rng.randint(2, 5)
        v, w = rand_primitive(rng, n), rand_primitive(rng, n)
        d = RodDiagram(n, "half_plane", [Rod.axis(v), Rod.horizon(), Rod.axis(w)])
        rods = [Rod.axis(v)] if v == w else [Rod.axis(v), Rod.horizon(), Rod.axis(w)]
        sub = RodDiagram(n, "half_plane", rods)
        assert end_pi1(d) == fundamental_group(sub)


# ----------------------------------------------------------------------
# fill-in paths


def test_fillin_already_admissible():
    assert fillin_path((1, 0), (0, 1)) == [(1, 0), (0, 1)]


def test_fillin_continued_fraction_chain():
    chain = fillin_path((1, 0), (2, 5))
    assert chain == [(1, 0), (0, 1), (1, 2), (2, 5)]
    for a, b in zip(chain, chain[1:]):
        assert det2(a, b) == 1


def test_fillin_parallel():
    chain = fillin_path((1, 0, 0), (1, 0, 0))
    assert len(chain) == 3
    assert det2(chain[0], chain[1]) == 1
    assert det2(chain[1], chain[2]) == 1


def test_fillin_random_chains():
    rng = random.Random(22)
    for _ in range(300):
        n = rng.randint(2, 6)
        v, w = rand_primitive(rng, n), rand_primitive(rng, n)
        chain = fillin_path(v, w)
        assert chain[0] == v and chain[-1] == w
        for u in chain:
            assert is_primitive_vector(u)
        for a, b in zip(chain, chain[1:]):
            assert det2(a, b) == 1


def test_fillin_and_compactify_invert_no_matrix(monkeypatch):
    # a fill-in chain spans Q^-1 e1 and Q^-1 e2, which fillin_path reads
    # off v and w; only parallel pairs need a column of Q^-1, and
    # compactify merges those instead of filling them in
    rng = random.Random(24)
    diagrams = [rand_admissible_half_plane(rng) for _ in range(100)]
    bundled = [parse(p.read_text()) for p in sorted(DIAGRAMS.glob("*.json"))]
    diagrams += [d for d in bundled if d.shape == "half_plane"]  # compactify's domain

    def refuse(self):
        raise AssertionError("inverse_unimodular called")

    monkeypatch.setattr(IntMatrix, "inverse_unimodular", refuse)
    for n in range(2, 7):
        for _ in range(60):
            v, w = rand_primitive(rng, n), rand_primitive(rng, n)
            if det2(v, w) != 0:
                chain = fillin_path(v, w)
                assert chain[0] == v and chain[-1] == w
    for d in diagrams:
        assert is_simply_connected(compactify(d).diagram)


def test_fillin_computes_no_hermite_form_on_non_parallel_pairs(monkeypatch):
    hermites = []

    def counting_hermite(A):
        hermites.append(A.cols)
        return hermite_normal_form(A)

    monkeypatch.setattr(topology, "hermite_normal_form", counting_hermite)
    rng = random.Random(26)
    chains = 0
    for _ in range(600):
        n = rng.randint(2, 6)
        v, w = rand_primitive(rng, n), rand_primitive(rng, n)
        if det2(v, w) != 0:
            chains += len(fillin_path(v, w)) > 2
    assert chains >= 80
    assert hermites == []
    # a parallel pair still takes a column of Q^-1 from one Hermite form
    assert len(fillin_path((1, 2, 0), (-1, -2, 0))) == 3
    assert hermites == [2]


def test_fillin_errors_raise():
    # each check raises, so it holds under python -O as well
    with pytest.raises(CompactifyError, match="not primitive"):
        fillin_path((2, 0, 0), (0, 1, 0))
    with pytest.raises(CompactifyError, match="not primitive"):
        fillin_path((2, 4), (1, 3))
    with pytest.raises(CompactifyError, match="not primitive"):
        fillin_path((1, 0, 0), (2, 4, 0))
    with pytest.raises(CompactifyError, match="not primitive"):
        fillin_path((1, 0), (0, 2))
    # without the check a multiple of a primitive w gets a chain whose
    # first link has Det_2 = 2, and the zero vector a chain that ends in 0
    with pytest.raises(CompactifyError, match=r"^first structure \(2, 0\) is not primitive$"):
        fillin_path((2, 0), (1, 0))
    with pytest.raises(CompactifyError, match=r"^second structure \(0, 0\) is not primitive$"):
        fillin_path((1, 0), (0, 0))
    # the shape errors are det2's
    with pytest.raises(ValueError, match="ragged columns"):
        fillin_path((1, 0, 0), (0, 1))
    with pytest.raises(ValueError, match="out of range"):
        fillin_path((1,), (-1,))


def test_forged_plane_reading_is_refused(monkeypatch):
    # a Bezout functional with c.v = 0 misreads q, and (w - q v) / p is
    # then not integral
    monkeypatch.setattr(roddiagram, "_bezout", lambda v: (1, [0, 1]))
    with pytest.raises(RodTopoError, match="not integral"):
        fillin_path((1, 0), (2, 5))


def test_fillin_matches_inverse_of_hermite_transformation():
    # reference: the chain is Q^-1 applied to the continued-fraction plane
    # chain of p/q, where Q [v w] = [e1 (q, p, 0, ...)]
    sympy = pytest.importorskip("sympy")
    from sympy.ntheory.continued_fraction import (
        continued_fraction_convergents,
        continued_fraction_iterator,
    )

    rng = random.Random(25)
    for _ in range(500):
        n = rng.randint(2, 6)
        v = rand_primitive(rng, n)
        w = v if rng.random() < 0.1 else rand_primitive(rng, n)
        res = hermite_normal_form(IntMatrix.from_columns([v, w]))
        q_inv = sympy.Matrix(res.Q.to_lists()).inv()
        q, p = res.H[0, 1], res.H[1, 1]
        if p == 0:
            plane = [(1, 0), (0, 1), (q, 0)]
        elif q == 0:
            plane = [(1, 0), (0, 1)]
        else:
            convergents = continued_fraction_convergents(
                continued_fraction_iterator(sympy.Rational(p, q))
            )
            plane = [(1, 0), (0, 1)] + [(c.q, c.p) for c in convergents]
        expected = [
            tuple(int(entry) for entry in q_inv * sympy.Matrix([x, y] + [0] * (n - 2)))
            for x, y in plane
        ]
        assert fillin_path(v, w) == expected


# ----------------------------------------------------------------------
# compactification


def test_compactify_counterexample_gives_s4_diagram():
    plan = compactify(counterexample())
    structures = [s.v for s in plan.diagram.structures()]
    assert structures == [(1, 0), (0, 1)]
    assert plan.diagram.shape == "disk"
    assert len(plan.diagram.corners()) == 2
    kinds = [f.kind for f in plan.horizon_fills]
    assert kinds == ["corner", "corner"]
    assert plan.end_cap.kind == "merge"
    assert is_simply_connected(plan.diagram)


def test_compactify_corner_case():
    d = RodDiagram(
        3,
        "half_plane",
        [Rod.axis((1, 0, 0)), Rod.horizon(), Rod.axis((0, 1, 0)), Rod.axis((0, 0, 1))],
    )
    plan = compactify(d)
    assert plan.horizon_fills[0].kind == "corner"
    assert is_simply_connected(plan.diagram)


def test_compactify_chain_case():
    d = RodDiagram(
        2,
        "half_plane",
        [Rod.axis((1, 0)), Rod.horizon(), Rod.axis((2, 5))],
    )
    plan = compactify(d)
    assert plan.horizon_fills[0].kind == "chain"
    assert plan.horizon_fills[0].inserted == ((0, 1), (1, 2))
    assert is_simply_connected(plan.diagram)


def test_compactify_augments_to_simple_connectivity():
    # single rod spanning the whole axis: the end cap must be rerouted
    d = RodDiagram(2, "half_plane", [Rod.axis((1, 0))])
    plan = compactify(d)
    assert plan.waypoints == ((0, 1),)
    assert is_simply_connected(plan.diagram)
    # a one-rod component merged across both of its horizons: the walk
    # collapses to one structure, whose end cap is then rerouted
    d = RodDiagram(
        2,
        "half_plane",
        [Rod.axis((1, 0)), Rod.horizon(), Rod.axis((1, 0)), Rod.horizon(), Rod.axis((1, 0))],
    )
    merge = {"location": "horizon", "kind": "merge", "inserted": []}
    assert compactify(d).to_json_dict() == {
        "horizon_fills": [{**merge, "rod_index": 1}, {**merge, "rod_index": 3}],
        "end_cap": {"location": "end", "rod_index": None, "kind": "chain", "inserted": [[0, 1]]},
        "augmentation_waypoints": [[0, 1]],
        "diagram": {
            "n": 2,
            "shape": "disk",
            "rods": [{"kind": "axis", "v": [1, 0]}, {"kind": "axis", "v": [0, 1]}],
        },
    }


def test_compactify_augmentation_keeps_end_chain_directions():
    # the end gap has Det_2 = 2, so its fill-in chain contributes a plane
    # direction the other rods miss; the simple-connectivity reroute must
    # not lose that direction when it replaces the chain
    d = RodDiagram(
        4,
        "half_plane",
        [
            Rod.axis((1, 0, 0, 0)),
            Rod.horizon(),
            Rod.axis((0, 1, 0, 0)),
            Rod.horizon(),
            Rod.axis((1, 2, 2, 0)),
        ],
    )
    plan = compactify(d)
    assert is_simply_connected(plan.diagram)
    assert len(plan.waypoints) >= 2  # both missing directions rerouted


def _random_structure_sets(rng, count):
    """Seeded structure sets of rank 2-5: 1 to n + 2 nonzero vectors with
    small entries, so that some spans miss basis vectors and some do not."""
    sets = []
    while len(sets) < count:
        n = rng.randint(2, 5)
        vs = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(rng.randint(1, n + 2))]
        if all(any(v) for v in vs):
            sets.append((n, vs))
    return sets


def test_missing_basis_vectors_builds_one_smith_form(monkeypatch):
    smiths = []

    def counting_smith(A):
        smiths.append(A.cols)
        return smith_normal_form(A)

    monkeypatch.setattr(intlin, "smith_normal_form", counting_smith)
    monkeypatch.setattr(topology, "smith_normal_form", counting_smith)
    for n, vs in _random_structure_sets(random.Random(81), 40):
        smiths.clear()
        topology._missing_basis_vectors(n, vs)
        assert smiths == [len(vs)]


def _in_span(A, e):
    """Membership of e in the integer column span of A, decided without a
    Smith form: with r = rank A, e lies in the span iff appending it to A
    raises neither the rank nor Det_r, the gcd of the r x r minors."""
    Ae = IntMatrix.from_columns(A.columns() + [e])
    r = max((k for k in range(1, min(A.rows, A.cols) + 1) if determinant_divisor(A, k)),
            default=0)
    if r < A.rows and determinant_divisor(Ae, r + 1):
        return False
    return r == 0 or determinant_divisor(Ae, r) == determinant_divisor(A, r)


def test_missing_basis_vectors_match_determinant_divisors():
    outcomes = set()
    for n, vs in _random_structure_sets(random.Random(82), 300):
        span = IntMatrix.from_columns(vs)
        basis = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        want = tuple(e for e in basis if not _in_span(span, e))
        assert topology._missing_basis_vectors(n, vs) == want
        outcomes.add(len(want))
    assert {0, 1, 2} <= outcomes


def _compactify_corpus():
    rng = random.Random(23)
    return [rand_admissible_half_plane(rng) for _ in range(100)]


def test_compactify_preserves_input_rods_as_cyclic_subsequence():
    # compactify certifies no corner after building its disk, so every
    # corner is checked here, by cofactor minors independent of det2
    kinds = []
    for d in _compactify_corpus():
        plan = compactify(d)
        assert is_simply_connected(plan.diagram)
        inputs = [s.v for s in d.structures()]
        out = [s.v for s in plan.diagram.structures()]
        walk = out * (len(inputs) + 1)
        pos = 0
        for v in inputs:
            while pos < len(walk) and walk[pos] != v:
                pos += 1
            assert pos < len(walk)
            pos += 1
        rods = plan.diagram.rods
        for i, j in plan.diagram.corners():
            pair = IntMatrix.from_columns([rods[i].structure.v, rods[j].structure.v])
            assert minor_gcd(pair, 2) == 1
        kinds += [f.kind for f in (*plan.horizon_fills, plan.end_cap)]
        kinds += ["augmented"] * bool(plan.waypoints)
    # the corpus reaches every way a corner is made
    assert kinds.count("augmented") >= 40
    assert kinds.count("chain") >= 60
    assert kinds.count("merge") >= 10
    assert kinds.count("corner") >= 10


def test_compactify_gates_its_input_once_and_builds_one_disk(monkeypatch):
    bundled = [parse(p.read_text()) for p in sorted(DIAGRAMS.glob("*.json"))]
    diagrams = _compactify_corpus() + [d for d in bundled if d.shape == "half_plane"]
    calls = []
    gate, build = RodDiagram.inadmissible_corner, topology._build_disk

    def counting_gate(self):
        calls.append("gate")
        return gate(self)

    def counting_build(n, structures):
        calls.append("disk")
        return build(n, structures)

    monkeypatch.setattr(RodDiagram, "inadmissible_corner", counting_gate)
    monkeypatch.setattr(topology, "_build_disk", counting_build)
    for d in diagrams:
        calls.clear()
        compactify(d)
        assert calls == ["gate", "disk"]


def test_one_pi1_serves_compactify_and_its_disk_readers(monkeypatch):
    bundled = [parse(p.read_text()) for p in sorted(DIAGRAMS.glob("*.json"))]
    diagrams = _compactify_corpus() + [d for d in bundled if d.shape == "half_plane"]
    quotients = []
    quotient = topology._quotient

    def counting_quotient(n, vs):
        quotients.append(len(vs))
        return quotient(n, vs)

    monkeypatch.setattr(topology, "_quotient", counting_quotient)
    for d in diagrams:
        quotients.clear()
        plan = compactify(d)
        computed = len(quotients)
        # one walk is certified, or two when the end cap is rerouted
        assert computed == 1 + bool(plan.waypoints)
        assert is_simply_connected(plan.diagram)
        assert classify(plan.diagram, spin=False).n == d.n
        assert len(quotients) == computed


def test_cached_invariants_match_a_fresh_diagram():
    # every value a diagram caches, and the pi_1 compactify hands its
    # disk, equals the one recomputed on a new diagram of the same rods
    bundled = [parse(p.read_text()) for p in sorted(DIAGRAMS.glob("*.json"))]
    diagrams = bundled + [parse(json.dumps(INADMISSIBLE_CORNER))] + _compactify_corpus()
    augmented = 0
    for d in diagrams:
        checked = [d]
        if d.shape == "half_plane":
            want = asymptotic_end(RodDiagram(d.n, d.shape, list(d.rods)))
            assert asymptotic_end(d) == asymptotic_end(d) == want
            assert end_pi1(d) == end_pi1(RodDiagram(d.n, d.shape, list(d.rods)))
            if d.inadmissible_corner() is None:
                plan = compactify(d)
                checked.append(plan.diagram)
                augmented += bool(plan.waypoints)
        for x in checked:
            fresh = RodDiagram(x.n, x.shape, list(x.rods))
            assert fundamental_group(x) == fundamental_group(x) == fundamental_group(fresh)
            assert x.inadmissible_corner() == x.inadmissible_corner() == fresh.inadmissible_corner()
    assert augmented >= 40
    assert sum(d.inadmissible_corner() is not None for d in diagrams) == 1


def _disk(n, vectors):
    return RodDiagram(n, "disk", [Rod.axis(v) for v in vectors])


def _index_two_vector(rng, n):
    # primitive, with an even coordinate sum
    while True:
        v = rand_primitive(rng, n, -3, 3)
        if sum(v) % 2 == 0:
            return v


def _index_two_disk(rng, n, k):
    vs = [_index_two_vector(rng, n)]
    while len(vs) < k:
        v = _index_two_vector(rng, n)
        if normalize_sign(v) != normalize_sign(vs[-1]) and (
            len(vs) < k - 1 or normalize_sign(v) != normalize_sign(vs[0])
        ):
            vs.append(v)
    return _disk(n, vs)


def test_is_simply_connected_matches_smith():
    rng = random.Random(71)
    diagrams = []
    for _ in range(150):
        d = rand_admissible_half_plane(rng, nmax=4)
        diagrams += [d, compactify(d).diagram]
    for n in (2, 3, 4):
        e = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        diagrams += [
            _index_two_disk(rng, n, rng.randint(n, 8)),
            # rank 2, so rank-deficient for n > 2, with k > n for n = 3
            _disk(n, [e[0], e[1], tuple(x + y for x, y in zip(e[0], e[1])),
                     tuple(x + 2 * y for x, y in zip(e[0], e[1]))]),
            # fewer than n structures
            _disk(n, e[:-1]),
            # exactly n structures: a basis, then an index-2 sublattice
            _disk(n, e),
            _disk(n, e[:-1] + [tuple(x + 2 * y for x, y in zip(e[0], e[-1]))]),
        ]
    outcomes = [is_simply_connected(d) for d in diagrams]
    assert outcomes == [_smith_group(d).trivial for d in diagrams]
    assert 100 <= sum(outcomes) <= len(outcomes) - 100


def _smith_group(d):
    """Reference pi_1, read off the Smith form of the structure matrix."""
    snf = smith_normal_form(d.structure_matrix())
    return AbelianGroup(d.n - snf.rank, tuple(s for s in snf.divisors if s > 1))


def test_fundamental_group_matches_smith_reference():
    rng = random.Random(73)
    diagrams = []
    for _ in range(100):
        d = rand_admissible_half_plane(rng, nmax=5)
        diagrams += [d, compactify(d).diagram]
    for _ in range(200):
        n, k = rng.randint(2, 5), rng.randint(1, 8)
        vs = [rand_primitive(rng, n, -3, 3)]
        while len(vs) < k:
            v = rand_primitive(rng, n, -3, 3)
            if normalize_sign(v) not in (normalize_sign(vs[-1]), normalize_sign(vs[0])):
                vs.append(v)
        diagrams.append(_disk(n, vs))
    for n in (2, 3, 4, 5):
        diagrams += [_index_two_disk(rng, n, rng.randint(n, 9)) for _ in range(5)]
    groups = [fundamental_group(d) for d in diagrams]
    assert groups == [_smith_group(d) for d in diagrams]
    assert sum(g.trivial for g in groups) >= 100
    assert sum(bool(g.torsion) for g in groups) >= 20
    assert sum(g.free_rank > 0 for g in groups) >= 20


def test_is_simply_connected_needs_no_smith_form_on_compactified_diagrams(monkeypatch):
    diagrams = [parse(path.read_text()) for path in sorted(DIAGRAMS.glob("*.json"))]
    plans = [compactify(d) for d in diagrams if d.shape == "half_plane"]
    dets = []
    smiths = []

    def counting_det(A, k):
        dets.append(k)
        return determinant_divisor(A, k)

    def counting_smith(A):
        smiths.append(A.cols)
        return smith_normal_form(A)

    monkeypatch.setattr(topology, "determinant_divisor", counting_det)
    monkeypatch.setattr(topology, "smith_normal_form", counting_smith)
    assert len(plans) == 3
    assert all(is_simply_connected(plan.diagram) for plan in plans)
    assert all(fundamental_group(plan.diagram).trivial for plan in plans)
    assert smiths == []

    # an index-2 sublattice defeats every window, so Smith decides, once
    d = _index_two_disk(random.Random(72), 4, 30)
    dets.clear()
    assert not is_simply_connected(d)
    assert len(dets) <= 30
    assert smiths == [30]


# ----------------------------------------------------------------------
# betti numbers and the chart


def s4_diagram():
    return RodDiagram(2, "disk", [Rod.axis((1, 0)), Rod.axis((0, 1))])


def s2xs2_diagram():
    return RodDiagram(
        2,
        "disk",
        [Rod.axis((1, 0)), Rod.axis((0, 1)), Rod.axis((1, 0)), Rod.axis((0, 1))],
    )


def s5_diagram():
    return RodDiagram(
        3, "disk", [Rod.axis((1, 0, 0)), Rod.axis((0, 1, 0)), Rod.axis((0, 0, 1))]
    )


def test_betti2_sphere_rows():
    assert betti2(s4_diagram()) == 0
    assert betti2(s5_diagram()) == 0


def test_betti2_s2xs2():
    # 4 corners, n = 2: the standard product diagram, chart row #1(S^2 x S^2)
    d = s2xs2_diagram()
    assert betti2(d) == 2
    c = classify(d, spin=True)
    assert c.summands == (("S^2 x S^2", 1),)


def test_betti2_requires_simply_connected():
    d = RodDiagram(2, "disk", [Rod.axis((1, 0)), Rod.axis((1, 2))])
    with pytest.raises(ClassifyError):
        betti2(d)
    # admissible corners, but the structures span a plane of Z^3: the
    # cached pi_1 is read, and refused, on every call
    d = RodDiagram(3, "disk", [Rod.axis(v) for v in ((1, 0, 0), (0, 1, 0), (1, 1, 0))])
    for _ in range(2):
        with pytest.raises(ClassifyError, match=r"not simply connected \(pi_1 = Z\)"):
            classify(d, spin=False)


def test_classify_chart_rows():
    c = classify(s4_diagram(), spin=True)
    assert (c.row, c.k, c.display) == ("two_connected", 0, "S^4")

    # n = 3, spin, k = 2
    d = RodDiagram(
        3,
        "disk",
        [
            Rod.axis((1, 0, 0)),
            Rod.axis((0, 1, 0)),
            Rod.axis((0, 0, 1)),
            Rod.axis((1, 0, 0)),
            Rod.axis((0, 1, 0)),
        ],
    )
    c = classify(d, spin=True)
    assert c.k == 2
    assert c.summands == (("S^2 x S^3", 2),)
    assert c.display == "#2(S^2 x S^3)"

    c = classify(d, spin=False)
    assert c.summands == (("S^2 ~x S^3", 1), ("S^2 x S^3", 1))


def test_classify_n4_nonspin_k1():
    d = RodDiagram(
        4,
        "disk",
        [
            Rod.axis((1, 0, 0, 0)),
            Rod.axis((0, 1, 0, 0)),
            Rod.axis((0, 0, 1, 0)),
            Rod.axis((0, 0, 0, 1)),
            Rod.axis((0, 1, 1, 0)),
        ],
    )
    c = classify(d, spin=False)
    assert c.k == 1
    assert c.summands == (("S^2 ~x S^4", 1), ("S^2 x S^4", 0), ("S^3 x S^3", 2))
    assert c.display == "(S^2 ~x S^4) # 2(S^3 x S^3)"


def test_classify_spin_n2_odd_k_rejected():
    d = RodDiagram(
        2,
        "disk",
        [Rod.axis((1, 0)), Rod.axis((0, 1)), Rod.axis((1, 0)), Rod.axis((0, 1)), Rod.axis((1, 1))],
    )
    assert betti2(d) == 3
    with pytest.raises(ClassifyError):
        classify(d, spin=True)
    c = classify(d, spin=False)
    assert c.row == "non_spin"


def test_classify_rejects_unsupported_rank():
    d = RodDiagram(
        5,
        "disk",
        [
            Rod.axis((1, 0, 0, 0, 0)),
            Rod.axis((0, 1, 0, 0, 0)),
            Rod.axis((0, 0, 1, 0, 0)),
            Rod.axis((0, 0, 0, 1, 0)),
            Rod.axis((0, 0, 0, 0, 1)),
        ],
    )
    with pytest.raises(ClassifyError):
        classify(d, spin=True)


def test_counterexample_full_pipeline():
    d = counterexample()
    plan = compactify(d)
    c = classify(plan.diagram, spin=True)
    assert (c.row, c.k, c.display) == ("two_connected", 0, "S^4")


def test_refined_conjecture_property():
    # every admissible diagram compactifies to a chart entry
    rng = random.Random(24)
    for _ in range(100):
        d = rand_admissible_half_plane(rng, nmax=4)
        plan = compactify(d)
        c = classify(plan.diagram, spin=(betti2(plan.diagram) % 2 == 0 or d.n != 2))
        assert c.row in ("two_connected", "spin", "non_spin")
