"""Acceptance criteria.

Each test prints one PASS/FAIL line; run with `pytest -s tests/test_acceptance.py`
to see them.  Criteria 1-4 are exact (integer equality), criterion 5 runs
eight randomized property suites with >= 1000 cases each under a total
60 s budget, and criterion 6 checks the model-map tension bounds at the
mandated grid spacing under a 5 minute budget.
"""

import json
import math
import random
import time

import numpy as np
import pytest

from rodtopo.intlin import (
    IntMatrix,
    determinant_divisor,
    hermite_normal_form,
    is_primitive_set,
    is_primitive_vector,
    smith_normal_form,
)
from rodtopo.plumbing import decompose_component, plumbing_to_rods, plumbing_vector
from rodtopo.roddiagram import (
    Rod,
    RodDiagram,
    cross_section_topology,
    det2,
    parse,
)
from rodtopo.topology import (
    betti2,
    classify,
    compactify,
    end_pi1,
    fillin_path,
    fundamental_group,
    is_simply_connected,
)
from rodtopo.modelmap import build_model_map, tension_norm, verify_tension

from helpers import (
    minor_gcd,
    rand_admissible_chain,
    rand_admissible_half_plane,
    rand_matrix,
    rand_primitive,
    rand_unimodular,
)


def report(name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"[{tag}] {name}{suffix}")
    assert ok, f"{name}: {detail}"


# ----------------------------------------------------------------------
# criterion 1: single-black-hole diagram normal form, exact, < 1 ms


def test_criterion_1_hermite_normal_form():
    A = IntMatrix.from_columns([(1, 0, 0), (1, -1, 1), (2, 0, 3), (1, 1, 0)])
    expected_H = IntMatrix.from_columns([(1, 0, 0), (0, 1, 0), (2, 0, 3), (2, -1, 1)])
    expected_Q = IntMatrix([(1, 1, 0), (0, -1, 0), (0, 1, 1)])
    res = hermite_normal_form(A)  # warm-up
    best = math.inf
    for _ in range(20):
        t0 = time.perf_counter()
        res = hermite_normal_form(A)
        best = min(best, time.perf_counter() - t0)
    ok = res.H == expected_H and res.Q == expected_Q and best < 1e-3
    report(
        "criterion 1: Hermite form and transformation matrix, < 1 ms",
        ok,
        f"{best * 1e6:.0f} us",
    )


# ----------------------------------------------------------------------
# criterion 2: the non-equivalent plumbings figure, exact


def test_criterion_2_plumbing_figure_suite():
    p1 = plumbing_vector((0, 1, 0), (2, 3, 5), (11, 9, 24), 3, 2, 7)
    p2 = plumbing_vector((0, 1, 0), (2, 3, 5), (-3, 9, -11), 3, 2, 7)
    vectors_ok = p1 == (1, 0, 2) and p2 == (-1, 0, -3)

    labels = [
        (((1, 0, 0, 0), (0, 0, 0, 1), 4), "S^3 x T^2"),
        (((1, 0, 0), (11, 9, 24), 3), "L(3,2) x S^1"),
        (((1, 0, 0, 0), (1, 0, 0, 0), 4), "S^2 x T^3"),
        (((1, 0, 0), (-3, 9, -11), 3), "S^3 x S^1"),
    ]
    labels_ok = all(
        cross_section_topology(v, w, n).display() == want
        for (v, w, n), want in labels
    )
    report(
        "criterion 2: plumbing vectors and cross-section labels",
        vectors_ok and labels_ok,
    )


# ----------------------------------------------------------------------
# criterion 3: the worked decomposition figure, exact


def test_criterion_3_decomposition_figure():
    from rodtopo.plumbing import doc_decomposition

    diagram = RodDiagram(
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
    doc = doc_decomposition(diagram)
    plumb = doc.pieces[0].plumbing
    ok = (
        (doc.J, doc.N1, doc.N2) == (1, 1, 1)
        and [p.kind for p in doc.pieces]
        == ["toric_plumbing", "corner_ball", "cylinder", "end"]
        and [b.to_json_dict() for b in plumb.bundles]
        == [
            {"base": "L(5,2)", "p": 5, "q": 2, "euler": 1, "torus_factor": 0},
            {"base": "L(2,1)", "p": 2, "q": 1, "euler": 0, "torus_factor": 0},
        ]
        and plumb.plumbing_vectors == ((1, 0, 2),)
        and doc.pieces[1].display() == "B^4 x S^1"
        and doc.pieces[2].display() == "[0,1] x D^2 x T^2"
        and doc.pieces[3].display() == "R+ x S^3 x S^1"
    )
    report("criterion 3: worked decomposition (bundles, vector, pieces, counts)", ok)


# ----------------------------------------------------------------------
# criterion 4: the simply-connected-DOC counterexample pipeline, exact


def test_criterion_4_counterexample_pipeline():
    diagram = parse(
        json.dumps(
            {
                "n": 2,
                "shape": "half_plane",
                "rods": [
                    {"kind": "axis", "v": [1, 0]},
                    {"kind": "horizon"},
                    {"kind": "axis", "v": [0, 1]},
                    {"kind": "horizon"},
                    {"kind": "axis", "v": [1, 0]},
                ],
            }
        )
    )
    pi1 = fundamental_group(diagram)
    epi1 = end_pi1(diagram)
    horizons = [
        cross_section_topology(
            diagram.rods[left].structure, diagram.rods[right].structure, 2
        )
        for _, left, right in diagram.horizon_flankings()
    ]
    plan = compactify(diagram)
    structures = [s.v for s in plan.diagram.structures()]
    corners = plan.diagram.corners()
    corner_ok = len(corners) == 2 and all(
        det2(plan.diagram.rods[i].structure, plan.diagram.rods[j].structure) == 1
        for i, j in corners
    )
    c = classify(plan.diagram, spin=True)
    ok = (
        pi1.trivial
        and (epi1.free_rank, epi1.torsion) == (1, ())
        and all(cs.family == "S3" and cs.torus_factor == 0 for cs in horizons)
        and len(horizons) == 2
        and structures == [(1, 0), (0, 1)]
        and corner_ok
        and (c.display, c.k) == ("S^4", 0)
    )
    report("criterion 4: counterexample pipeline (pi_1, end, horizons, S^4)", ok)


# ----------------------------------------------------------------------
# criterion 5: randomized property suites, >= 1000 cases each, < 60 s


CASES = 1000


def _suite_hermite_invariance(rng):
    for _ in range(CASES):
        rows = rng.randint(1, 4)
        A = rand_matrix(rng, rows, rng.randint(1, 5), -9, 9)
        B = rand_unimodular(rng, rows)
        if hermite_normal_form(B @ A).H != hermite_normal_form(A).H:
            return False
    return True


def _suite_detk_invariance(rng):
    for _ in range(CASES):
        rows = rng.randint(1, 4)
        A = rand_matrix(rng, rows, rng.randint(1, 4), -9, 9)
        B = rand_unimodular(rng, rows)
        for k in range(1, min(A.rows, A.cols) + 1):
            if determinant_divisor(B @ A, k) != determinant_divisor(A, k):
                return False
    return True


def _suite_smith_divisors(rng):
    for _ in range(CASES):
        A = rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 4), -6, 6)
        res = smith_normal_form(A)
        prev_s = None
        prev_d = 1
        for i, s in enumerate(res.divisors, start=1):
            if prev_s is not None and prev_s != 0:
                if s != 0 and s % prev_s != 0:
                    return False
            if prev_s == 0 and s != 0:
                return False
            dk = minor_gcd(A, i)
            if dk == 0:
                if s != 0:
                    return False
            elif s != dk // prev_d:
                return False
            else:
                prev_d = dk
            prev_s = s
    return True


def _suite_primitivity_equivalence(rng):
    for _ in range(CASES):
        n = rng.randint(2, 5)
        k = rng.randint(1, n)
        vs = [tuple(rng.randint(-5, 5) for _ in range(n)) for _ in range(k)]
        if all(all(x == 0 for x in v) for v in vs):
            continue
        A = IntMatrix.from_columns(vs)
        via_det = determinant_divisor(A, k) == 1
        H = hermite_normal_form(A).H
        via_hermite = all(
            H[i, j] == (1 if i == j else 0) for i in range(k) for j in range(k)
        )
        if not (is_primitive_set(vs) == via_det == via_hermite):
            return False
    return True


def _suite_plumbing_roundtrip(rng):
    for _ in range(CASES):
        n = rng.randint(3, 5)
        chain = rand_admissible_chain(rng, n, rng.randint(3, 5))
        tp = decompose_component(chain)
        rods = plumbing_to_rods(tp.bundles, tp.plumbing_vectors)
        if tuple(rods) != tp.rods_hnf:
            return False
        tp2 = decompose_component(rods)
        if (tp2.bundles, tp2.plumbing_vectors) != (tp.bundles, tp.plumbing_vectors):
            return False
    return True


def _suite_plumbing_det3(rng):
    for _ in range(CASES):
        n = rng.randint(3, 5)
        chain = rand_admissible_chain(rng, n, rng.randint(3, 6))
        tp = decompose_component(chain)
        for i, vec in enumerate(tp.plumbing_vectors, start=2):
            if all(x == 0 for x in vec):
                continue
            d3 = determinant_divisor(
                IntMatrix.from_columns([tp.rods_hnf[i - 1], tp.rods_hnf[i], vec]), 3
            )
            if d3 != 1:
                return False
    return True


def _suite_fillin_paths(rng):
    for _ in range(CASES):
        n = rng.randint(2, 6)
        v, w = rand_primitive(rng, n), rand_primitive(rng, n)
        chain = fillin_path(v, w)
        if chain[0] != v or chain[-1] != w:
            return False
        for u in chain:
            if not is_primitive_vector(u):
                return False
        for a, b in zip(chain, chain[1:]):
            if det2(a, b) != 1:
                return False
    return True


def _suite_compactify_postcondition(rng):
    for _ in range(CASES):
        d = rand_admissible_half_plane(rng)
        plan = compactify(d)  # raises on failure, never silent
        if not is_simply_connected(plan.diagram):
            return False
    return True


def test_criterion_5_property_suites():
    suites = [
        ("hermite invariance", _suite_hermite_invariance, 501),
        ("det_k invariance", _suite_detk_invariance, 502),
        ("smith divisor chain and quotients", _suite_smith_divisors, 503),
        ("primitivity three-way equivalence", _suite_primitivity_equivalence, 504),
        ("plumbing roundtrip identity", _suite_plumbing_roundtrip, 505),
        ("plumbing vector Det_3 = 1", _suite_plumbing_det3, 506),
        ("fill-in chains Det_2 = 1", _suite_fillin_paths, 507),
        ("compactify postcondition", _suite_compactify_postcondition, 508),
    ]
    t0 = time.perf_counter()
    results = []
    for name, fn, seed in suites:
        ok = fn(random.Random(seed))
        results.append((name, ok))
    elapsed = time.perf_counter() - t0
    all_ok = all(ok for _, ok in results) and elapsed < 60.0
    detail = ", ".join(f"{name}: {'ok' if ok else 'FAIL'}" for name, ok in results)
    report(
        f"criterion 5: eight property suites x {CASES} cases in {elapsed:.1f} s (< 60 s)",
        all_ok,
        detail,
    )


# ----------------------------------------------------------------------
# criterion 6: model-map tension bounds at h = 0.05, < 5 min


INF = float("inf")


def test_criterion_6_model_map_tension():
    t0 = time.perf_counter()
    two_horizon_one_corner = RodDiagram(
        3,
        "half_plane",
        [
            Rod.axis((1, 0, 0), z=(-INF, 0.0), potential=(0.0, 0.0, 0.0)),
            Rod.axis((0, 1, 0), z=(0.0, 1.5), potential=(0.0, 0.0, 0.0)),
            Rod.horizon(z=(1.5, 4.0)),
            Rod.axis((0, 0, 1), z=(4.0, 5.5), potential=(0.3, 0.0, 0.1)),
            Rod.horizon(z=(5.5, 8.0)),
            Rod.axis((1, 2, 0), z=(8.0, INF), potential=(1.0, 0.5, 0.0)),
        ],
    )
    m = build_model_map(two_horizon_one_corner)
    rep = verify_tension(m, h=0.05)
    decay_ok = rep.decay_pass and rep.decay["mean_slope"] <= -2.3
    sup_ok = rep.sup_bounded_pass and all(a["ratio"] < 1.1 for a in rep.annuli)

    no_corner = RodDiagram(
        3,
        "half_plane",
        [
            Rod.axis((1, 0, 0), z=(-INF, 0.0), potential=(0.0, 0.0, 0.0)),
            Rod.horizon(z=(0.0, 1.0)),
            Rod.axis((1, 0, 0), z=(1.0, INF), potential=(0.0, 0.0, 0.0)),
        ],
    )
    mh = build_model_map(no_corner)
    orders = []
    for rho, z in [(1.0, 0.5), (1.5, -0.8), (0.8, 1.9)]:
        t1 = tension_norm(mh, rho, z, 0.05)
        t2 = tension_norm(mh, rho, z, 0.025)
        orders.append(math.log2(t1 / t2))
    order_ok = all(1.8 <= o <= 2.2 for o in orders)

    elapsed = time.perf_counter() - t0
    ok = decay_ok and sup_ok and order_ok and elapsed < 300.0
    report(
        f"criterion 6: tension decay slope {rep.decay['mean_slope']:.2f} <= -2.3, "
        f"sup ratios {[round(a['ratio'], 3) for a in rep.annuli]} < 1.1, "
        f"orders {[round(o, 2) for o in orders]} in [1.8, 2.2], {elapsed:.0f} s (< 300 s)",
        ok,
    )
