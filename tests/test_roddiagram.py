import json
import random

import pytest

from rodtopo import roddiagram
from rodtopo.errors import (
    DiagramValidationError,
    InadmissibleCornerError,
    RodTopoError,
    SchemaError,
)
from rodtopo.intlin import (
    IntMatrix,
    determinant_divisor,
    hermite_normal_form,
    is_primitive_vector,
)
from rodtopo.roddiagram import (
    Rod,
    RodDiagram,
    RodStructure,
    asymptotic_end,
    classify_corner,
    compatibility_inequality,
    cross_section_topology,
    det2,
    diagram_equivalent,
    normalize_compatibility,
    parse,
    serialize,
    _plane_reading,
)

from helpers import nonfinite_potential, rand_admissible_chain, rand_primitive, rand_unimodular


COUNTEREXAMPLE_JSON = json.dumps(
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

FIGURE4_JSON = json.dumps(
    {
        "n": 3,
        "shape": "half_plane",
        "rods": [
            {"kind": "axis", "v": [1, 0, 0]},
            {"kind": "axis", "v": [0, 1, 0]},
            {"kind": "axis", "v": [2, 1, 5]},
            {"kind": "axis", "v": [2, 1, 4]},
            {"kind": "horizon"},
            {"kind": "axis", "v": [1, 1, 0]},
            {"kind": "axis", "v": [4, 5, 0]},
            {"kind": "horizon"},
            {"kind": "axis", "v": [0, 0, 1]},
            {"kind": "horizon"},
            {"kind": "axis", "v": [0, 0, 1]},
        ],
    }
)


def counterexample():
    return parse(COUNTEREXAMPLE_JSON)


def figure4():
    return parse(FIGURE4_JSON)


# ----------------------------------------------------------------------
# parse / serialize


def test_parse_counterexample_diagram():
    d = counterexample()
    assert d.n == 2
    assert [r.kind for r in d.rods] == ["axis", "horizon", "axis", "horizon", "axis"]
    assert d.structures()[0].v == (1, 0)


def test_parse_rejects_non_primitive():
    bad = {"n": 2, "shape": "half_plane", "rods": [{"kind": "axis", "v": [2, 4]}]}
    with pytest.raises(DiagramValidationError) as exc:
        parse(json.dumps(bad))
    assert "rod 0" in str(exc.value)
    assert "primitive" in str(exc.value)


def test_roundtrip_on_figure4():
    text = serialize(figure4())
    assert serialize(parse(text)) == text


def test_random_diagrams_revalidate_after_roundtrip():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(2, 4)
        chain = rand_admissible_chain(rng, n, rng.randint(1, 4))
        rods = []
        for k, v in enumerate(chain):
            rods.append({"kind": "axis", "v": list(v)})
            if k + 1 < len(chain) and rng.random() < 0.4:
                rods.append({"kind": "horizon"})
        d = parse(json.dumps({"n": n, "shape": "half_plane", "rods": rods}))
        again = parse(serialize(d))
        assert serialize(again) == serialize(d)


def test_parse_sign_normalizes_and_keeps_raw():
    d = parse(
        json.dumps(
            {"n": 2, "shape": "half_plane", "rods": [{"kind": "axis", "v": [-1, 2]}]}
        )
    )
    s = d.rods[0].structure
    assert s.v == (1, -2)
    assert s.raw == (-1, 2)


def test_parse_rejects_adjacent_equal_structures():
    bad = {
        "n": 2,
        "shape": "half_plane",
        "rods": [{"kind": "axis", "v": [1, 0]}, {"kind": "axis", "v": [-1, 0]}],
    }
    with pytest.raises(DiagramValidationError) as exc:
        parse(json.dumps(bad))
    assert "equal structures" in str(exc.value)


def test_parse_rejects_inconsistent_potentials():
    bad = {
        "n": 2,
        "shape": "half_plane",
        "rods": [
            {"kind": "axis", "v": [1, 0], "potential": [0.0, 0.0]},
            {"kind": "axis", "v": [0, 1], "potential": [1.0, 0.0]},
        ],
    }
    with pytest.raises(DiagramValidationError) as exc:
        parse(json.dumps(bad))
    assert "potential" in str(exc.value)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_parse_rejects_nonfinite_potentials(value):
    # json.loads takes the literals NaN, Infinity and -Infinity as floats
    text = json.dumps(nonfinite_potential(float(value)))
    assert "NaN" in text or "Infinity" in text
    with pytest.raises(DiagramValidationError) as exc:
        parse(text)
    assert str(exc.value) == "rod 3: potential constant is not finite"
    assert exc.value.rod_index == 3


def test_parse_rejects_schema_violations():
    with pytest.raises(SchemaError):
        parse("not json at all")
    with pytest.raises(SchemaError):
        parse(json.dumps({"n": 2, "shape": "half_plane"}))
    with pytest.raises(SchemaError):
        parse(
            json.dumps(
                {"n": 2, "shape": "half_plane", "rods": [{"kind": "axis", "v": [1, 0.5]}]}
            )
        )


def test_parse_z_intervals():
    d = parse(
        json.dumps(
            {
                "n": 2,
                "shape": "half_plane",
                "rods": [
                    {"kind": "axis", "v": [1, 0], "z": ["-inf", 0]},
                    {"kind": "horizon", "z": [0, 1]},
                    {"kind": "axis", "v": [0, 1], "z": [1, "+inf"]},
                ],
            }
        )
    )
    assert d.rods[0].is_semi_infinite
    assert d.rods[1].z == (0.0, 1.0)
    # round trip keeps the infinities symbolic
    again = parse(serialize(d))
    assert again.rods[0].z[0] == float("-inf")


def test_geometry_validation():
    with pytest.raises(DiagramValidationError):  # degenerate horizon
        RodDiagram(
            2,
            "half_plane",
            [
                Rod.axis((1, 0), z=(float("-inf"), 0)),
                Rod.horizon(z=(0, 0)),
                Rod.axis((0, 1), z=(0, float("inf"))),
            ],
        )
    with pytest.raises(DiagramValidationError):  # not contiguous
        RodDiagram(
            2,
            "half_plane",
            [
                Rod.axis((1, 0), z=(float("-inf"), 0)),
                Rod.horizon(z=(1, 2)),
                Rod.axis((0, 1), z=(2, float("inf"))),
            ],
        )


def test_horizon_whose_length_overflows_is_rejected_at_parse():
    text = json.dumps(
        {
            "n": 2,
            "shape": "half_plane",
            "rods": [
                {"kind": "axis", "v": [1, 0], "z": ["-inf", -1e308]},
                {"kind": "horizon", "z": [-1e308, 1e308]},
                {"kind": "axis", "v": [0, 1], "z": [1e308, "+inf"]},
            ],
        }
    )
    with pytest.raises(DiagramValidationError, match="finite length"):
        parse(text)


def test_half_plane_must_start_and_end_with_axis():
    with pytest.raises(DiagramValidationError):
        RodDiagram(2, "half_plane", [Rod.horizon(), Rod.axis((1, 0))])


def test_adjacent_horizons_rejected():
    with pytest.raises(DiagramValidationError):
        RodDiagram(
            2,
            "half_plane",
            [Rod.axis((1, 0)), Rod.horizon(), Rod.horizon(), Rod.axis((0, 1))],
        )


# ----------------------------------------------------------------------
# corner classification


def test_det2_rejects_ragged_empty_and_float_input():
    with pytest.raises(ValueError, match="ragged columns"):
        det2((1, 0, 0), (0, 1))
    with pytest.raises(ValueError, match="at least one row"):
        det2((), ())
    with pytest.raises(TypeError, match="entries must be integers"):
        det2((1.5, 0, 0), (0, 1, 0))
    with pytest.raises(ValueError, match="out of range"):
        det2((1,), (2,))


def test_det2_matches_determinant_divisor():
    rng = random.Random(31)
    for _ in range(800):
        n = rng.randint(2, 6)
        v = [rng.randint(-6, 6) for _ in range(n)]
        roll = rng.random()
        if roll < 0.15:
            w = [rng.randint(-3, 3) * x for x in v]  # parallel, or zero
        elif roll < 0.3:
            w = [rng.choice((2, 3)) * x for x in rand_primitive(rng, n)]
        else:
            w = [rng.randint(-6, 6) for _ in range(n)]
        assert det2(v, w) == determinant_divisor(IntMatrix.from_columns([v, w]), 2)


def test_classify_corner_examples():
    assert classify_corner((1, 0, 0), (0, 1, 0)).admissible
    assert classify_corner((0, 1, 0), (2, 3, 5)).admissible
    res = classify_corner((1, 0), (1, 2))
    assert not res.admissible
    assert res.det2 == 2


def test_classify_corner_parallel_rejected():
    with pytest.raises(ValueError):
        classify_corner((1, 0), (-1, 0))


def test_classify_corner_symmetric_and_sign_blind():
    rng = random.Random(7)
    for _ in range(100):
        n = rng.randint(2, 4)
        v, w = rand_primitive(rng, n), rand_primitive(rng, n)
        if all(a * w[0] == b * v[0] for a, b in zip(v, w)) or v == w:
            continue
        try:
            a = classify_corner(v, w)
        except ValueError:
            continue
        assert classify_corner(w, v) == a
        assert classify_corner(tuple(-x for x in v), w) == a


# ----------------------------------------------------------------------
# cross sections and ends


def test_cross_section_bad_plumbing_labels():
    cs = cross_section_topology((1, 0, 0, 0), (0, 0, 0, 1), 4)
    assert cs.display() == "S^3 x T^2"
    cs = cross_section_topology((1, 0, 0), (11, 9, 24), 3)
    assert (cs.family, cs.p, cs.q) == ("Lens", 3, 2)
    assert cs.display() == "L(3,2) x S^1"
    cs = cross_section_topology((1, 0, 0, 0), (1, 0, 0, 0), 4)
    assert cs.family == "S1xS2"
    assert cs.display() == "S^2 x T^3"
    cs = cross_section_topology((1, 0, 0), (-3, 9, -11), 3)
    assert cs.display() == "S^3 x S^1"


def test_cross_section_invariant_under_unimodular():
    rng = random.Random(8)
    for _ in range(120):
        n = rng.randint(2, 4)
        v, w = rand_primitive(rng, n), rand_primitive(rng, n)
        Q = rand_unimodular(rng, n)
        a = cross_section_topology(v, w, n)
        b = cross_section_topology(Q @ v, Q @ w, n)
        assert a == b


def test_plane_reading_matches_hermite_reference():
    # Hermite form [e1 (q, p, 0, ...)] of [v w], and Q^-1 e2 = u
    rng = random.Random(33)
    lens = 0
    for _ in range(1500):
        n = rng.randint(2, 6)
        v, w = rand_primitive(rng, n), rand_primitive(rng, n)
        if rng.random() < 0.5:
            # a larger Det_2: w = a v + b x, kept when primitive
            a, b = rng.randint(-9, 9), rng.randint(2, 9)
            w = tuple(a * y + b * x for x, y in zip(w, v))
            if not is_primitive_vector(w):
                continue
        p = det2(v, w)
        if p == 0:
            continue
        res = hermite_normal_form(IntMatrix.from_columns([v, w]))
        q, u = _plane_reading(v, w, p, DiagramValidationError)
        assert res.H.column(1) == (q, p) + (0,) * (n - 2)
        assert res.Q @ u == tuple(int(i == 1) for i in range(n))
        assert tuple(q * a + p * b for a, b in zip(v, u)) == tuple(w)
        lens += p > 1
    assert lens >= 600


def test_plane_reading_errors_raise():
    # each check raises, so it holds under python -O as well
    with pytest.raises(DiagramValidationError, match="not primitive"):
        cross_section_topology((2, 0, 0), (0, 1, 0), 3)
    with pytest.raises(DiagramValidationError, match="not primitive"):
        cross_section_topology((2, 0), (1, 1), 2)
    # a wrong p leaves (w - q v) / p non-integral
    with pytest.raises(RodTopoError, match="not integral"):
        _plane_reading((1, 0), (1, 3), 2, DiagramValidationError)


def test_forged_bezout_functional_is_refused(monkeypatch):
    # c = e2 misreads q for v = e1, and the integrality certificate catches it
    assert cross_section_topology((1, 0, 0), (11, 9, 24), 3).q == 2
    monkeypatch.setattr(roddiagram, "_bezout", lambda v: (1, [0, 1, 0]))
    with pytest.raises(DiagramValidationError, match="not integral"):
        cross_section_topology((1, 0, 0), (11, 9, 24), 3)


def test_cross_section_computes_no_hermite_form(monkeypatch):
    def refuse(A):
        raise AssertionError("hermite_normal_form called")

    monkeypatch.setattr(roddiagram, "hermite_normal_form", refuse)
    rng = random.Random(34)
    families = set()
    for _ in range(300):
        n = rng.randint(2, 5)
        v = rand_primitive(rng, n)
        w = v if rng.random() < 0.1 else rand_primitive(rng, n)
        families.add(cross_section_topology(v, w, n).family)
    assert families == {"S3", "Lens", "S1xS2"}


def test_asymptotic_end_counterexample():
    cs = asymptotic_end(counterexample())
    assert cs.family == "S1xS2"
    assert cs.torus_factor == 0
    assert cs.display() == "S^1 x S^2"


def test_asymptotic_end_figure4():
    cs = asymptotic_end(figure4())
    assert cs.family == "S3"
    assert cs.display() == "S^3 x S^1"


def test_asymptotic_end_parallel_case():
    d = RodDiagram(
        4,
        "half_plane",
        [Rod.axis((1, 0, 0, 0)), Rod.horizon(), Rod.axis((1, 0, 0, 0))],
    )
    cs = asymptotic_end(d)
    assert cs.family == "S1xS2"
    assert cs.torus_factor == 2


def test_asymptotic_end_rejects_disk():
    d = RodDiagram(2, "disk", [Rod.axis((1, 0)), Rod.axis((0, 1))])
    with pytest.raises(ValueError):
        asymptotic_end(d)


# ----------------------------------------------------------------------
# equivalence


def test_figure1_diagrams_equivalent():
    left = RodDiagram(
        3,
        "half_plane",
        [
            Rod.axis((1, 0, 0)),
            Rod.horizon(),
            Rod.axis((1, -1, 1)),
            Rod.axis((2, 0, 3)),
            Rod.axis((1, 1, 0)),
        ],
    )
    right = RodDiagram(
        3,
        "half_plane",
        [
            Rod.axis((1, 0, 0)),
            Rod.horizon(),
            Rod.axis((0, 1, 0)),
            Rod.axis((2, 0, 3)),
            Rod.axis((2, -1, 1)),
        ],
    )
    assert diagram_equivalent(left, right)
    assert diagram_equivalent(left, left)


def test_diagram_equivalent_mismatches():
    assert not diagram_equivalent(counterexample(), figure4())
    d1 = RodDiagram(2, "disk", [Rod.axis((1, 0)), Rod.axis((0, 1))])
    with pytest.raises(ValueError):
        diagram_equivalent(counterexample(), d1)


def test_diagram_equivalence_is_equivalence_relation():
    rng = random.Random(9)
    for _ in range(40):
        n = rng.randint(2, 4)
        chain = rand_admissible_chain(rng, n, 3)
        rods = [Rod.axis(v) for v in chain]
        base = RodDiagram(n, "half_plane", rods)
        Q1, Q2 = rand_unimodular(rng, n), rand_unimodular(rng, n)

        def transformed(Q, source=base):
            rods = [Rod.axis(tuple(Q @ r.structure.v)) for r in source.rods]
            return RodDiagram(source.n, source.shape, rods)

        d1, d2 = transformed(Q1), transformed(Q2)
        assert diagram_equivalent(base, base)
        assert diagram_equivalent(base, d1) == diagram_equivalent(d1, base)
        if diagram_equivalent(base, d1) and diagram_equivalent(d1, d2):
            assert diagram_equivalent(base, d2)


# ----------------------------------------------------------------------
# compatibility normalization


def test_normalize_compatibility_identity():
    res = normalize_compatibility((1, 0), (0, 1), (-1, 5))
    assert res.matrix.to_lists() == [[1, 0], [0, 1]]
    assert res.triple == ((1, 0), (0, 1), (-1, 5))


def test_normalize_compatibility_matrix_formula():
    # with both corner determinants already +1 the matrix is ((q,-p),(-n,m))
    v1, v2, v3 = (2, 1), (3, 2), (1, 1)
    assert v1[0] * v2[1] - v1[1] * v2[0] == 1
    assert v2[0] * v3[1] - v2[1] * v3[0] == 1
    res = normalize_compatibility(v1, v2, v3)
    m, n = v1
    p, q = v2
    assert res.matrix.to_lists() == [[q, -p], [-n, m]]
    assert res.triple[0] == (1, 0)
    assert res.triple[1] == (0, 1)


def test_normalize_compatibility_random_inequality():
    rng = random.Random(10)
    for _ in range(200):
        chain = rand_admissible_chain(rng, 2, 3)
        res = normalize_compatibility(*chain)
        assert compatibility_inequality(*res.triple) <= 0


def test_normalize_compatibility_inadmissible():
    with pytest.raises(InadmissibleCornerError):
        normalize_compatibility((1, 0), (1, 2), (0, 1))
