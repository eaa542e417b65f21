import json
import random

import pytest

from rodtopo import intlin, roddiagram
from rodtopo.errors import (
    DiagramValidationError,
    RodTopoError,
    SchemaError,
)
from rodtopo.intlin import (
    IntMatrix,
    determinant_divisor,
    hermite_normal_form,
    is_primitive_vector,
)
from rodtopo.plumbing import doc_decomposition
from rodtopo.roddiagram import (
    Rod,
    RodDiagram,
    RodStructure,
    asymptotic_end,
    cross_section_topology,
    det2,
    parse,
    _plane_reading,
)
from rodtopo.topology import AbelianGroup, compactify, end_pi1

from helpers import (
    long_integer_text,
    nonfinite_potential,
    rand_admissible_chain,
    rand_primitive,
    rand_unimodular,
)


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


def dump(d):
    return json.dumps(d.to_json_dict(), sort_keys=True)


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
    text = dump(figure4())
    assert dump(parse(text)) == text


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
        again = parse(dump(d))
        assert dump(again) == dump(d)


def test_parse_sign_normalizes():
    d = parse(
        json.dumps(
            {"n": 2, "shape": "half_plane", "rods": [{"kind": "axis", "v": [-1, 2]}]}
        )
    )
    s = d.rods[0].structure
    assert s.v == (1, -2)


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


@pytest.mark.parametrize("rod, key", [(0, "z"), (3, "potential")])
def test_parse_rejects_integers_beyond_the_float_range(rod, key):
    # json.loads reads 10**400 written out in digits as an exact int, which
    # float() refuses with OverflowError
    diagram = nonfinite_potential(0.0)
    diagram["rods"][rod][key][1 if key == "z" else 0] = 10**400
    with pytest.raises(SchemaError) as exc:
        parse(json.dumps(diagram))
    assert str(exc.value) == f"rod {rod}: '{key}' holds an integer outside the float range"


def test_parse_rejects_integers_beyond_the_digit_limit():
    # json.loads refuses to read an int of more than 4300 digits with a
    # plain ValueError; parse reports it as a schema error
    with pytest.raises(SchemaError) as exc:
        parse(long_integer_text())
    assert str(exc.value) == "not valid JSON: an integer has more than 4300 digits"


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
    assert d.rods[0].z == (float("-inf"), 0.0)
    assert d.rods[1].z == (0.0, 1.0)
    # round trip keeps the infinities symbolic
    again = parse(dump(d))
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
    # cross_section_topology takes Det_2 of its converted vectors directly,
    # with det2's shape error
    with pytest.raises(ValueError, match="out of range"):
        cross_section_topology((1,), (-1,), 1)


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


def test_det2_symmetric_and_sign_blind():
    rng = random.Random(7)
    for _ in range(100):
        n = rng.randint(2, 4)
        v, w = rand_primitive(rng, n), rand_primitive(rng, n)
        d = det2(v, w)
        assert det2(w, v) == d
        assert det2(tuple(-x for x in v), w) == d


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
    # without the check Det_2 = 0 reads the first two as S^2 x T^2, and
    # the third (Det_2 = 2, q = 0) fails on lens parameters (2, 0)
    for v, w, message in [
        ((2, 0, 0), (1, 0, 0), "first structure (2, 0, 0) is not primitive"),
        ((0, 0, 0), (1, 0, 0), "first structure (0, 0, 0) is not primitive"),
        ((1, 0, 0), (2, 2, 0), "second structure (2, 2, 0) is not primitive"),
    ]:
        with pytest.raises(DiagramValidationError) as info:
            cross_section_topology(v, w, 3)
        assert str(info.value) == message
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

    monkeypatch.setattr(intlin, "hermite_normal_form", refuse)
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
    for _ in range(2):  # the refusal is not cached as a value
        with pytest.raises(ValueError):
            asymptotic_end(d)


def test_end_and_corner_check_are_computed_once_per_diagram(monkeypatch):
    d = figure4()
    calls = []
    cross_section, kernel = roddiagram.cross_section_topology, roddiagram._det2

    def counting_cross_section(v, w, n):
        calls.append("end")
        return cross_section(v, w, n)

    def counting_det2(v, w):
        calls.append("det2")
        return kernel(v, w)

    monkeypatch.setattr(roddiagram, "cross_section_topology", counting_cross_section)
    monkeypatch.setattr(roddiagram, "_det2", counting_det2)
    end = asymptotic_end(d)
    assert d.inadmissible_corner() is None
    assert calls.count("end") == 1 and calls.count("det2") == 1 + len(d.corners())
    calls.clear()
    # the three end readers and the two corner gates read the cached values
    assert end_pi1(d) == AbelianGroup(1, ())
    assert doc_decomposition(d).pieces[-1].end == end
    compactify(d)
    assert asymptotic_end(d) == end and d.inadmissible_corner() is None
    assert calls == []
