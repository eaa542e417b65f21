"""Rod-diagram data model, JSON serialization, validation, classification.

A rod diagram records the boundary data of the two-dimensional orbit space
of a torus action: an ordered list of axis rods (each carrying a primitive
integer structure vector) and horizon rods, optionally with z-coordinates
and potential constants.  Half-plane diagrams start and end with
semi-infinite axis rods; disk diagrams are cyclically ordered and finite.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from math import gcd
from typing import Optional

from .errors import DiagramValidationError, InadmissibleCornerError, SchemaError
from .intlin import (
    IntMatrix,
    determinant_divisor,
    hermite_normal_form,
    _int_vector,
    is_primitive_vector,
)

HALF_PLANE = "half_plane"
DISK = "disk"

NEG_INF = float("-inf")
POS_INF = float("inf")


@dataclass(frozen=True)
class RodStructure:
    """Primitive integer vector, sign-normalized so the first nonzero
    component is positive.  ``raw`` keeps the input signs for diagnostics."""

    v: tuple
    raw: tuple

    @classmethod
    def from_raw(cls, components):
        raw = _int_vector(components)
        if not is_primitive_vector(raw):
            raise ValueError(f"structure {raw} is not primitive")
        return cls(_normalize_sign(raw), raw)

    @property
    def n(self):
        return len(self.v)

    def __iter__(self):
        return iter(self.v)

    def __len__(self):
        return len(self.v)


def _normalize_sign(v):
    for x in v:
        if x > 0:
            return tuple(v)
        if x < 0:
            return tuple(-y for y in v)
    return tuple(v)


def _as_vector(v):
    """Accept a RodStructure or a plain integer sequence."""
    if isinstance(v, RodStructure):
        return v.v
    return _int_vector(v)


@dataclass(frozen=True)
class Rod:
    kind: str  # "axis" | "horizon"
    structure: Optional[RodStructure] = None
    z: Optional[tuple] = None  # (z_lo, z_hi), extended reals
    potential: Optional[tuple] = None  # length-n real vector, axis only

    @classmethod
    def axis(cls, v, z=None, potential=None):
        return cls(
            "axis",
            v if isinstance(v, RodStructure) else RodStructure.from_raw(v),
            tuple(z) if z is not None else None,
            tuple(float(x) for x in potential) if potential is not None else None,
        )

    @classmethod
    def horizon(cls, z=None):
        return cls("horizon", None, tuple(z) if z is not None else None)

    @property
    def is_axis(self):
        return self.kind == "axis"

    @property
    def is_semi_infinite(self):
        return self.z is not None and (self.z[0] == NEG_INF or self.z[1] == POS_INF)


@dataclass(frozen=True)
class CrossSectionTopology:
    """Topology of a horizon cross-section or asymptotic-end cross-section:
    one of S^3, L(p,q), S^1 x S^2, times a torus factor T^(n-2)."""

    family: str  # "S3" | "Lens" | "S1xS2"
    p: int
    q: int
    torus_factor: int

    @classmethod
    def s3(cls, torus_factor):
        return cls("S3", 1, 0, torus_factor)

    @classmethod
    def lens(cls, p, q, torus_factor):
        if not (p > 1 and 0 < q < p and gcd(p, q) == 1):
            raise ValueError(f"invalid lens parameters ({p}, {q})")
        return cls("Lens", p, q, torus_factor)

    @classmethod
    def ring(cls, torus_factor):
        return cls("S1xS2", 0, 1, torus_factor)

    def display(self):
        if self.family == "S1xS2":
            # the S^1 factor joins the torus: S^1 x S^2 x T^f = S^2 x T^(f+1)
            total = self.torus_factor + 1
            return "S^1 x S^2" if total == 1 else f"S^2 x {_torus_name(total)}"
        base = "S^3" if self.family == "S3" else f"L({self.p},{self.q})"
        if self.torus_factor == 0:
            return base
        return f"{base} x {_torus_name(self.torus_factor)}"

    def to_json_dict(self):
        return {
            "family": self.family,
            "p": self.p,
            "q": self.q,
            "torus_factor": self.torus_factor,
            "display": self.display(),
        }


def _torus_name(k):
    return "S^1" if k == 1 else f"T^{k}"


@dataclass(frozen=True)
class CornerClass:
    admissible: bool
    det2: int


@dataclass
class RodDiagram:
    n: int
    shape: str  # "half_plane" | "disk"
    rods: list  # of Rod

    def __post_init__(self):
        self.validate()

    # ------------------------------------------------------------------
    # queries

    def axis_indices(self):
        return [i for i, r in enumerate(self.rods) if r.is_axis]

    def horizon_indices(self):
        return [i for i, r in enumerate(self.rods) if not r.is_axis]

    def structures(self):
        return [r.structure for r in self.rods if r.is_axis]

    def structure_matrix(self) -> IntMatrix:
        return IntMatrix.from_columns([s.v for s in self.structures()])

    def has_geometry(self):
        return all(r.z is not None for r in self.rods)

    def adjacent_pairs(self):
        """Indices (i, j) of rods adjacent in the boundary order."""
        pairs = [(i, i + 1) for i in range(len(self.rods) - 1)]
        if self.shape == DISK and len(self.rods) > 1:
            pairs.append((len(self.rods) - 1, 0))
        return pairs

    def corners(self):
        """(i, j) pairs of adjacent axis rods (meeting at a corner)."""
        return [
            (i, j)
            for i, j in self.adjacent_pairs()
            if self.rods[i].is_axis and self.rods[j].is_axis
        ]

    def horizon_flankings(self):
        """For each horizon rod, (index, left axis index, right axis index)."""
        out = []
        m = len(self.rods)
        for i in self.horizon_indices():
            if self.shape == DISK:
                left, right = (i - 1) % m, (i + 1) % m
            else:
                left, right = i - 1, i + 1
            out.append((i, left, right))
        return out

    def axis_components(self):
        """Maximal runs of consecutive axis rods, as lists of rod indices.

        Splitting happens at horizon rods.  Disk diagrams are treated
        cyclically, so a run may wrap around the end of the list.
        """
        m = len(self.rods)
        comps = []
        cur = []
        for i, rod in enumerate(self.rods):
            if rod.is_axis:
                cur.append(i)
            elif cur:
                comps.append(cur)
                cur = []
        if cur:
            comps.append(cur)
        if (
            self.shape == DISK
            and len(comps) > 1
            and self.rods[0].is_axis
            and self.rods[m - 1].is_axis
        ):
            first = comps.pop(0)
            comps[-1] = comps[-1] + first
        return comps

    # ------------------------------------------------------------------
    # validation

    def validate(self):
        if not isinstance(self.n, int) or self.n < 2:
            raise DiagramValidationError(f"torus rank n must be an integer >= 2, got {self.n!r}")
        if self.shape not in (HALF_PLANE, DISK):
            raise DiagramValidationError(f"shape must be 'half_plane' or 'disk', got {self.shape!r}")
        if not self.rods:
            raise DiagramValidationError("diagram has no rods")

        for i, rod in enumerate(self.rods):
            if rod.kind not in ("axis", "horizon"):
                raise DiagramValidationError(f"unknown rod kind {rod.kind!r}", i)
            if rod.is_axis:
                if rod.structure is None:
                    raise DiagramValidationError("axis rod without a structure vector", i)
                if rod.structure.n != self.n:
                    raise DiagramValidationError(
                        f"structure has length {rod.structure.n}, expected {self.n}", i
                    )
                if not is_primitive_vector(rod.structure.v):
                    raise DiagramValidationError("structure is not primitive", i)
                if rod.potential is not None and len(rod.potential) != self.n:
                    raise DiagramValidationError(
                        f"potential constant has length {len(rod.potential)}, expected {self.n}", i
                    )
            else:
                if rod.structure is not None:
                    raise DiagramValidationError("horizon rod must not carry a structure", i)
                if rod.potential is not None:
                    raise DiagramValidationError("horizon rod must not carry a potential", i)

        if self.shape == HALF_PLANE:
            if not self.rods[0].is_axis:
                raise DiagramValidationError("first rod of a half-plane diagram must be an axis rod", 0)
            if not self.rods[-1].is_axis:
                raise DiagramValidationError(
                    "last rod of a half-plane diagram must be an axis rod", len(self.rods) - 1
                )

        # a horizon needs axis rods on both sides; two in a row would be a
        # single horizon interval misrepresented as two
        for i, j in self.adjacent_pairs():
            if not self.rods[i].is_axis and not self.rods[j].is_axis:
                raise DiagramValidationError("adjacent horizon rods are not allowed", j)
        if self.shape == DISK and len(self.rods) == 1 and not self.rods[0].is_axis:
            raise DiagramValidationError("a lone horizon rod does not bound a disk diagram", 0)

        for i, j in self.corners():
            if self.rods[i].structure.v == self.rods[j].structure.v:
                raise DiagramValidationError(
                    f"adjacent axis rods {i} and {j} have equal structures", j
                )

        self._validate_geometry()
        self._validate_potentials()

    def _validate_geometry(self):
        present = [r.z is not None for r in self.rods]
        if not any(present):
            return
        if not all(present):
            idx = present.index(False)
            raise DiagramValidationError("z-interval missing while other rods carry one", idx)
        for i, rod in enumerate(self.rods):
            lo, hi = rod.z
            if math.isnan(lo) or math.isnan(hi):
                raise DiagramValidationError("z-interval contains NaN", i)
            if not lo < hi:
                raise DiagramValidationError(f"degenerate z-interval {rod.z}", i)
            if not rod.is_axis and math.isinf(hi - lo):
                raise DiagramValidationError("horizon rod must have finite length", i)
        if self.shape == HALF_PLANE:
            if self.rods[0].z[0] != NEG_INF:
                raise DiagramValidationError("first rod must extend to z = -inf", 0)
            if self.rods[-1].z[1] != POS_INF:
                raise DiagramValidationError(
                    "last rod must extend to z = +inf", len(self.rods) - 1
                )
            for i, rod in enumerate(self.rods[1:-1], start=1):
                if math.isinf(rod.z[0]) or math.isinf(rod.z[1]):
                    raise DiagramValidationError("interior rod must be finite", i)
        else:
            for i, rod in enumerate(self.rods):
                if math.isinf(rod.z[0]) or math.isinf(rod.z[1]):
                    raise DiagramValidationError("disk diagram rods must be finite", i)
        for i in range(len(self.rods) - 1):
            if self.rods[i].z[1] != self.rods[i + 1].z[0]:
                raise DiagramValidationError(
                    f"z-intervals not contiguous between rods {i} and {i + 1}", i + 1
                )

    def _validate_potentials(self):
        for i, j in self.corners():
            pi, pj = self.rods[i].potential, self.rods[j].potential
            if pi is None and pj is None:
                continue
            if pi is None or pj is None or pi != pj:
                raise DiagramValidationError(
                    f"potential constants differ across the corner between rods {i} and {j}", j
                )

    # ------------------------------------------------------------------

    def to_json_dict(self):
        rods = []
        for rod in self.rods:
            if rod.is_axis:
                entry = {"kind": "axis", "v": list(rod.structure.v)}
                if rod.z is not None:
                    entry["z"] = [_z_out(rod.z[0]), _z_out(rod.z[1])]
                if rod.potential is not None:
                    entry["potential"] = list(rod.potential)
            else:
                entry = {"kind": "horizon"}
                if rod.z is not None:
                    entry["z"] = [rod.z[0], rod.z[1]]
            rods.append(entry)
        return {"n": self.n, "shape": self.shape, "rods": rods}


def _z_out(x):
    if x == NEG_INF:
        return "-inf"
    if x == POS_INF:
        return "+inf"
    return x


def _z_in(x, rod_index):
    if isinstance(x, str):
        if x == "-inf":
            return NEG_INF
        if x == "+inf":
            return POS_INF
        raise SchemaError(f"rod {rod_index}: bad z endpoint {x!r}")
    if isinstance(x, (int, float)) and not isinstance(x, bool):
        return float(x)
    raise SchemaError(f"rod {rod_index}: bad z endpoint {x!r}")


def parse(text: str) -> RodDiagram:
    """Parse and validate a diagram from its JSON form."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise SchemaError(f"not valid JSON: {e}") from e
    if not isinstance(data, dict):
        raise SchemaError("top level must be a JSON object")
    for key in ("n", "shape", "rods"):
        if key not in data:
            raise SchemaError(f"missing key {key!r}")
    n, shape, rods_in = data["n"], data["shape"], data["rods"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise SchemaError("'n' must be an integer")
    if not isinstance(rods_in, list):
        raise SchemaError("'rods' must be a list")

    rods = []
    for i, entry in enumerate(rods_in):
        if not isinstance(entry, dict) or "kind" not in entry:
            raise SchemaError(f"rod {i}: each rod must be an object with a 'kind'")
        kind = entry["kind"]
        extra = set(entry) - {"kind", "v", "z", "potential"}
        if extra:
            raise SchemaError(f"rod {i}: unknown keys {sorted(extra)}")
        z = None
        if "z" in entry:
            if not isinstance(entry["z"], list) or len(entry["z"]) != 2:
                raise SchemaError(f"rod {i}: 'z' must be a two-element list")
            z = (_z_in(entry["z"][0], i), _z_in(entry["z"][1], i))
        if kind == "axis":
            if "v" not in entry or not isinstance(entry["v"], list):
                raise SchemaError(f"rod {i}: axis rod needs an integer vector 'v'")
            if not all(isinstance(x, int) and not isinstance(x, bool) for x in entry["v"]):
                raise SchemaError(f"rod {i}: 'v' must contain integers")
            try:
                structure = RodStructure.from_raw(entry["v"])
            except ValueError as e:
                raise DiagramValidationError(str(e), i) from e
            potential = None
            if "potential" in entry:
                if not isinstance(entry["potential"], list) or not all(
                    isinstance(x, (int, float)) and not isinstance(x, bool)
                    for x in entry["potential"]
                ):
                    raise SchemaError(f"rod {i}: 'potential' must be a list of numbers")
                potential = entry["potential"]
            rods.append(Rod.axis(structure, z, potential))
        elif kind == "horizon":
            if "v" in entry or "potential" in entry:
                raise SchemaError(f"rod {i}: horizon rod cannot carry 'v' or 'potential'")
            rods.append(Rod.horizon(z))
        else:
            raise SchemaError(f"rod {i}: unknown kind {kind!r}")
    return RodDiagram(n, shape, rods)


def serialize(diagram: RodDiagram) -> str:
    return json.dumps(diagram.to_json_dict(), sort_keys=True)


# ----------------------------------------------------------------------
# classification operations


def det2(v, w) -> int:
    v, w = _as_vector(v), _as_vector(w)
    if len(v) != len(w):
        raise ValueError("ragged columns")
    if not v:
        raise ValueError("matrix must have at least one row and one column")
    return determinant_divisor(IntMatrix._trusted(tuple(zip(v, w))), 2)


def classify_corner(v, w) -> CornerClass:
    """Admissibility of the corner between adjacent structures v and w."""
    v, w = _as_vector(v), _as_vector(w)
    d = det2(v, w)
    if d == 0:
        raise ValueError("corner classification needs non-parallel structures")
    return CornerClass(d == 1, d)


def cross_section_topology(v, w, n: int) -> CrossSectionTopology:
    """Topology of the closed (n+1)-manifold determined by flanking
    structures v and w: Det_2 = 0 gives S^1 x S^2, 1 gives S^3, and p > 1
    gives L(p, q) with q read from the Hermite form of [v w]."""
    v, w = _as_vector(v), _as_vector(w)
    if len(v) != n or len(w) != n:
        raise ValueError("structures must have length n")
    d = det2(v, w)
    if d == 0:
        return CrossSectionTopology.ring(n - 2)
    if d == 1:
        return CrossSectionTopology.s3(n - 2)
    H = hermite_normal_form(IntMatrix.from_columns([v, w])).H
    q = H[0, 1]
    p = H[1, 1]
    if p != d:
        raise DiagramValidationError(
            "Hermite pivot must agree with the determinant divisor"
        )
    return CrossSectionTopology.lens(p, q, n - 2)


def asymptotic_end(diagram: RodDiagram) -> CrossSectionTopology:
    """Cross-section of the asymptotic end of a half-plane diagram, read
    from its two semi-infinite rod structures.  The end itself is
    R_+ x cross-section."""
    if diagram.shape != HALF_PLANE:
        raise ValueError("asymptotic end is defined for half-plane diagrams only")
    v = diagram.rods[0].structure
    w = diagram.rods[-1].structure
    return cross_section_topology(v, w, diagram.n)


def diagram_equivalent(d1: RodDiagram, d2: RodDiagram) -> bool:
    """True iff one unimodular matrix carries every structure of d1 to the
    corresponding structure of d2; decided through Hermite-form equality."""
    if d1.shape != d2.shape:
        raise ValueError(f"cannot compare a {d1.shape} diagram with a {d2.shape} diagram")
    if d1.n != d2.n:
        return False
    kinds1 = [r.kind for r in d1.rods]
    kinds2 = [r.kind for r in d2.rods]
    if kinds1 != kinds2:
        return False
    h1 = hermite_normal_form(d1.structure_matrix()).H
    h2 = hermite_normal_form(d2.structure_matrix()).H
    return h1 == h2


@dataclass(frozen=True)
class CompatibilityNormalization:
    matrix: IntMatrix  # unimodular 2x2
    triple: tuple  # transformed (and sign-flipped) structures
    flipped: tuple  # signs applied to (v1, v2, v3) before transforming


def normalize_compatibility(v1, v2, v3) -> CompatibilityNormalization:
    """Unimodular change of coordinates sending three consecutive plane
    structures to {(1,0), (0,1), (r', s')}.

    Signs of the second and third vectors are flipped as needed so both
    corner determinants are +1; the transformed triple always satisfies
    the inequality m*r*(m*q - n*p)*(p*s - r*q) <= 0.
    """
    v1, v2, v3 = _as_vector(v1), _as_vector(v2), _as_vector(v3)
    if not (len(v1) == len(v2) == len(v3) == 2):
        raise ValueError("compatibility normalization operates on Z^2 structures")
    flips = [1, 1, 1]
    d1 = v1[0] * v2[1] - v1[1] * v2[0]
    if abs(d1) != 1:
        raise InadmissibleCornerError(
            f"corner between the first two structures has determinant {d1}", abs(d1)
        )
    if d1 == -1:
        v2 = (-v2[0], -v2[1])
        flips[1] = -1
    d2 = v2[0] * v3[1] - v2[1] * v3[0]
    if abs(d2) != 1:
        raise InadmissibleCornerError(
            f"corner between the last two structures has determinant {d2}", abs(d2)
        )
    if d2 == -1:
        v3 = (-v3[0], -v3[1])
        flips[2] = -1
    m, n_ = v1
    p, q = v2
    A = IntMatrix([(q, -p), (-n_, m)])
    triple = tuple(A @ v for v in (v1, v2, v3))
    if triple[0] != (1, 0) or triple[1] != (0, 1):
        raise InadmissibleCornerError(
            "normalization must send the first two structures to e1, e2"
        )
    return CompatibilityNormalization(A, triple, tuple(flips))


def compatibility_inequality(v1, v2, v3) -> int:
    """Value m*r*(m*q - n*p)*(p*s - r*q) for three plane structures."""
    (m, n_), (p, q), (r, s) = _as_vector(v1), _as_vector(v2), _as_vector(v3)
    return m * r * (m * q - n_ * p) * (p * s - r * q)
