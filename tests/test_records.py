"""Value semantics of the exact layer's result records: immutable, equal
and equally hashed when their fields are equal, built positionally in the
field order listed here.  RodDiagram is the one mutable record: it
validates on construction, compares by (n, shape, rods) and is unhashable.
It caches its corner list, corner check, asymptotic end and pi_1, each
computed once, so its rods must not change after construction.
The model map's records are immutable too and hold exact tuples, so they
compare by value and are changed by _replace; a FrameSegment hashes, a
ModelMap, which holds its RodDiagram, does not."""

from pathlib import Path

import pytest

from rodtopo.errors import DiagramValidationError, RodTopoError
from rodtopo.intlin import IntMatrix, hermite_normal_form, smith_normal_form
from rodtopo.modelmap import build_model_map, verify_tension
from rodtopo.plumbing import doc_decomposition, verify_plumbing_relations
from rodtopo.roddiagram import Rod, RodDiagram, cross_section_topology, parse
from rodtopo.topology import AbelianGroup, classify, compactify, fundamental_group

DIAGRAMS = Path(__file__).resolve().parent.parent / "diagrams"

FIELDS = {
    "HermiteResult": ("H", "Q", "pivots"),
    "SmithResult": ("S", "U", "V", "divisors"),
    "RodStructure": ("v",),
    "Rod": ("kind", "structure", "z", "potential"),
    "CrossSectionTopology": ("family", "p", "q", "torus_factor"),
    "Bundle": ("base", "p", "q", "euler", "torus_factor"),
    "RelationCheck": ("name", "index", "ok", "detail"),
    "PlumbingDiagnostics": ("records", "rods"),
    "ToricPlumbing": ("bundles", "plumbing_vectors", "rods_hnf"),
    "DocPiece": ("kind", "source_rod_indices", "plumbing", "end", "torus_factor"),
    "DocDecomposition": ("pieces", "J", "N1", "N2"),
    "AbelianGroup": ("free_rank", "torsion"),
    "Fill": ("location", "rod_index", "kind", "inserted"),
    "FillinPlan": ("horizon_fills", "end_cap", "waypoints", "diagram"),
    "Classification": ("n", "k", "row", "summands", "display"),
    "ModelMap": (
        "diagram", "terms", "segments", "far_frame", "z0", "omega_profile", "blend_radii",
    ),
    "FrameSegment": ("z_lo", "z_hi", "M0", "M1", "held_col"),
    "TensionReport": (
        "h", "excision_radius", "domain", "annuli", "decay", "convergence",
        "sup_bounded_pass", "decay_pass", "passed",
    ),
}

# records that hold a RodDiagram, a dict or a list
UNHASHABLE = {"FillinPlan", "ModelMap", "TensionReport"}


def _samples():
    """One record of each type, from the library's own results."""
    A = IntMatrix([[2, 4, 1], [6, 8, 3]])
    doc_input = parse((DIAGRAMS / "plumbed-doc.json").read_text())
    doc = doc_decomposition(doc_input)
    plumbing = doc.pieces[0].plumbing
    diagnostics = verify_plumbing_relations(plumbing.bundles, plumbing.plumbing_vectors)
    paper = parse((DIAGRAMS / "two-horizon-one-corner.json").read_text())
    plan = compactify(paper)
    model = build_model_map(paper)
    closed = parse((DIAGRAMS / "plumbed-doc-closed.json").read_text())
    rod = doc_input.rods[0]
    return [
        hermite_normal_form(A),
        smith_normal_form(A),
        rod.structure,
        rod,
        cross_section_topology((1, 0, 0), (1, 2, 0), 3),
        plumbing.bundles[0],
        diagnostics.checks[0],
        diagnostics,
        plumbing,
        doc.pieces[0],
        doc,
        fundamental_group(doc_input),
        plan.end_cap,
        plan,
        classify(closed, spin=False),
        model,
        model.segments[0],
        verify_tension(model, h=0.2),
    ]


SAMPLES = _samples()


def test_every_record_has_a_sample():
    assert sorted(type(r).__name__ for r in SAMPLES) == sorted(FIELDS)


@pytest.mark.parametrize("record", SAMPLES, ids=lambda r: type(r).__name__)
def test_record_fields_are_frozen(record):
    for name in FIELDS[type(record).__name__]:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))


@pytest.mark.parametrize("record", SAMPLES, ids=lambda r: type(r).__name__)
def test_equal_fields_give_equal_records(record):
    cls = type(record)
    names = FIELDS[cls.__name__]
    assert cls._fields == names
    values = [getattr(record, name) for name in names]
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(names, values)))
    assert by_position == record and by_keyword == record
    if cls.__name__ in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(by_position) == hash(record) == hash(by_keyword)


def _rods():
    return [Rod.axis((1, 0)), Rod.horizon(), Rod.axis((0, 1))]


def test_rod_diagram_validates_compares_by_fields_and_is_unhashable():
    d = RodDiagram(2, "half_plane", _rods())
    assert d == RodDiagram(n=2, shape="half_plane", rods=_rods())
    assert d != RodDiagram(2, "half_plane", [Rod.axis((1, 0)), Rod.horizon(), Rod.axis((1, 1))])
    assert d != RodDiagram(3, "half_plane", [Rod.axis((1, 0, 0)), Rod.axis((0, 1, 0))])
    assert d != (2, "half_plane", _rods())
    with pytest.raises(TypeError):
        hash(d)
    assert repr(d) == (
        "RodDiagram(n=2, shape='half_plane', rods=[Rod(kind='axis', "
        "structure=RodStructure(v=(1, 0)), z=None, potential=None), Rod(kind='horizon', "
        "structure=None, z=None, potential=None), Rod(kind='axis', "
        "structure=RodStructure(v=(0, 1)), z=None, potential=None)])"
    )
    with pytest.raises(DiagramValidationError, match="shape must be"):
        RodDiagram(2, "annulus", _rods())
    with pytest.raises(DiagramValidationError, match="adjacent horizon rods"):
        RodDiagram(2, "half_plane", [Rod.axis((1, 0)), Rod.horizon(), Rod.horizon(), Rod.axis((0, 1))])


@pytest.mark.parametrize(
    "free_rank, torsion, message",
    [
        (-1, (), "negative free rank -1"),
        (0, (2, 3), r"torsion \(2, 3\) is not a divisibility chain"),
        (1, (1,), r"torsion \(1,\) has a trivial factor"),
    ],
)
def test_abelian_group_rejects_bad_invariants(free_rank, torsion, message):
    with pytest.raises(RodTopoError, match=f"^{message}$"):
        AbelianGroup(free_rank, torsion)


def test_model_map_records_are_frozen_and_replaceable():
    diagram = parse((DIAGRAMS / "two-horizon-one-corner.json").read_text())
    m = build_model_map(diagram)
    report = verify_tension(m, h=0.2)
    assert report.to_json_dict() == report._asdict()
    # a report holds plain values only: reports of two separately built
    # maps compare equal, and repr is the NamedTuple default
    again = verify_tension(build_model_map(diagram), h=0.2)
    assert again == report and not again != report
    fields = ", ".join(f"{k}={v!r}" for k, v in report._asdict().items())
    assert repr(report) == f"TensionReport({fields})"
    # so does a map: two built from one diagram are equal, the negative
    # control is not, and its pieces sit in a tuple
    assert build_model_map(diagram) == m
    assert build_model_map(diagram, corrupt_transition=True) != m
    assert type(m.segments) is tuple
    for record, name, value in [
        (m, "z0", m.z0 + 1.0),
        (m.segments[0], "z_hi", 0.0),
        (report, "passed", not report.passed),
    ]:
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        changed = record._replace(**{name: value})
        assert type(changed) is type(record)
        assert getattr(changed, name) == value != getattr(record, name)
