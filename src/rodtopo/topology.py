"""Fundamental groups, fill-in chains, compactification, classification.

The fundamental group of a simple torus manifold is Z^n modulo the integer
span of its rod structures, read off the Smith normal form.  Horizons and
the asymptotic end can always be filled in by finite chains of structures
with admissible corners; choosing the chains so the filled-in diagram has
full integer span produces a simply connected closed diagram, which the
low-dimensional chart then classifies.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Optional

from .errors import ClassifyError, CompactifyError, RodTopoError
from .intlin import (
    IntMatrix,
    determinant_divisor,
    hermite_normal_form,
    smith_normal_form,
    _smith_span_contains,
)
from .roddiagram import (
    DISK,
    HALF_PLANE,
    CrossSectionTopology,
    Rod,
    RodDiagram,
    RodStructure,
    asymptotic_end,
    det2,
    _as_vector,
)


@dataclass(frozen=True)
class AbelianGroup:
    """Finitely generated abelian group Z^free_rank + sum of Z_s torsion."""

    free_rank: int
    torsion: tuple  # entries > 1, each dividing the next

    def __post_init__(self):
        if self.free_rank < 0:
            raise RodTopoError(f"negative free rank {self.free_rank}")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if not (a > 1 and b % a == 0):
                raise RodTopoError(f"torsion {self.torsion} is not a divisibility chain")
        if self.torsion and self.torsion[0] <= 1:
            raise RodTopoError(f"torsion {self.torsion} has a trivial factor")

    @property
    def trivial(self):
        return self.free_rank == 0 and not self.torsion

    def display(self):
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z_{s}" for s in self.torsion)
        return " + ".join(parts) if parts else "0"

    def to_json_dict(self):
        return {
            "free_rank": self.free_rank,
            "torsion": list(self.torsion),
            "display": self.display(),
        }


def fundamental_group(diagram: RodDiagram) -> AbelianGroup:
    """pi_1 of the total space: Z^n / span_Z of the rod structures."""
    snf = smith_normal_form(diagram.structure_matrix())
    rank = snf.rank
    torsion = tuple(s for s in snf.divisors if s > 1)
    return AbelianGroup(diagram.n - rank, torsion)


def is_simply_connected(diagram: RodDiagram) -> bool:
    """True iff Z^n / span_Z of the rod structures is trivial, that is, iff
    Det_n of the structure matrix is 1.

    Det_n divides every n x n minor, so windows of n cyclically consecutive
    structures whose determinants reach gcd 1 certify simple connectivity
    without a normal form.  Otherwise the Smith form decides.
    """
    vs = [s.v for s in diagram.structures()]
    n, k = diagram.n, len(vs)
    if k >= n:
        ring = vs + vs[: n - 1]
        g = 0
        # a walk of exactly n structures has one window up to rotation
        for i in range(k if k > n else 1):
            # the window's structures as rows: det A^T = det A
            window = IntMatrix._trusted(tuple(ring[i : i + n]))
            g = gcd(g, determinant_divisor(window, n))
            if g == 1:
                return True
    return fundamental_group(diagram).trivial


def end_pi1(diagram: RodDiagram) -> AbelianGroup:
    """pi_1 of the asymptotic end cross-section times its torus factor."""
    return _end_group(asymptotic_end(diagram))


def _end_group(cs: CrossSectionTopology) -> AbelianGroup:
    """pi_1 of an end cross-section times its torus factor."""
    if cs.family == "S3":
        return AbelianGroup(cs.torus_factor, ())
    if cs.family == "S1xS2":
        return AbelianGroup(cs.torus_factor + 1, ())
    return AbelianGroup(cs.torus_factor, (cs.p,))


# ----------------------------------------------------------------------
# fill-in chains


def _continued_fraction(p: int, q: int):
    """Regular continued fraction [a0; a1, ...] of p/q for p > q >= 1."""
    terms = []
    while q:
        terms.append(p // q)
        p, q = q, p % q
    return terms


def fillin_path(v, w):
    """Chain v = u_1, ..., u_k = w of primitive vectors with consecutive
    second determinant divisors equal to 1.

    The Hermite transformation Q of [v w] sends v to e1 and w to
    (q, p, 0, ...); the chain is built from the continued-fraction
    convergents of p/q in that plane and mapped back through Q^-1 e1 = v
    and Q^-1 e2 = (w - q v) / p, read off v and w without inverting Q.
    Parallel inputs get one intermediate vector.
    """
    v, w = _as_vector(v), _as_vector(w)
    n = len(v)
    res = hermite_normal_form(IntMatrix.from_columns([v, w]))
    col2 = res.H.column(1)
    if all(x == 0 for x in col2[1:]):
        # parallel structures: route through a basis-completing vector
        u = res.Q.inverse_unimodular() @ tuple(1 if i == 1 else 0 for i in range(n))
        return [v, u, w]
    q, p = col2[0], col2[1]
    if p < 1 or any(x != 0 for x in col2[2:]):
        raise CompactifyError(f"second Hermite column {col2} is not a plane vector")
    if q == 0:
        if p != 1:
            raise CompactifyError("primitive second structure forces p = 1 when q = 0")
        return [v, w]
    plane_chain = [(1, 0), (0, 1)]
    h_prev, h_cur = 0, 1  # numerators h_{-2}, h_{-1}
    k_prev, k_cur = 1, 0  # denominators k_{-2}, k_{-1}
    for a in _continued_fraction(p, q):
        h_prev, h_cur = h_cur, a * h_cur + h_prev
        k_prev, k_cur = k_cur, a * k_cur + k_prev
        plane_chain.append((k_cur, h_cur))
    if plane_chain[-1] != (q, p):
        raise CompactifyError(f"convergents end at {plane_chain[-1]}, not at {(q, p)}")
    # Q v = g e1 with g = gcd(v), so Q^-1 e1 = v / g exactly; a
    # non-primitive v (g > 1) then fails the join check below
    g = res.H[0, 0]
    t = tuple(a // g for a in v)
    u = tuple((b - q * a) // p for a, b in zip(t, w))
    chain = [tuple(x * a + y * b for a, b in zip(t, u)) for x, y in plane_chain]
    if chain[0] != v or chain[-1] != w:
        raise CompactifyError("fill-in chain does not join the two structures")
    return chain


# ----------------------------------------------------------------------
# compactification


@dataclass(frozen=True)
class Fill:
    """How one horizon (or the end gap) was filled in.

    kind "corner" deletes the horizon so the flanking rods meet, "merge"
    fuses two equal flanking rods into one, "chain" inserts the interior
    of a fill-in path.
    """

    location: str  # "horizon" | "end"
    rod_index: Optional[int]  # horizon rod index, None for the end
    kind: str  # "corner" | "merge" | "chain"
    inserted: tuple  # inserted interior structures

    def to_json_dict(self):
        return {
            "location": self.location,
            "rod_index": self.rod_index,
            "kind": self.kind,
            "inserted": [list(u) for u in self.inserted],
        }


@dataclass(frozen=True)
class FillinPlan:
    horizon_fills: tuple
    end_cap: Fill
    waypoints: tuple  # basis vectors routed through for simple connectivity
    diagram: RodDiagram  # the compactified disk diagram

    def to_json_dict(self):
        return {
            "horizon_fills": [f.to_json_dict() for f in self.horizon_fills],
            "end_cap": self.end_cap.to_json_dict(),
            "augmentation_waypoints": [list(w) for w in self.waypoints],
            "diagram": self.diagram.to_json_dict(),
        }


def _gap_fill(v, w):
    """Fill kind and inserted interior vectors for a gap flanked by v, w."""
    d = det2(v, w)
    if d == 0:
        return "merge", ()
    if d == 1:
        return "corner", ()
    return "chain", tuple(fillin_path(v, w)[1:-1])


def _chain_through(v, waypoints, w):
    """Interior of the concatenated fill-in paths v -> ... -> w."""
    stops = [v, *waypoints, w]
    out = []
    for a, b in zip(stops, stops[1:]):
        out.extend(fillin_path(a, b)[1:])
    return tuple(out[:-1])


def compactify(diagram: RodDiagram) -> FillinPlan:
    """Fill in every horizon and cap the asymptotic end of a half-plane
    diagram, producing a closed (disk) diagram that is simply connected.

    Each gap flanked by structures (v, w) is closed by a new corner when
    Det_2 = 1, by merging the two rods when v = w, and by inserting a
    fill-in chain otherwise.  If the result is not simply connected, the
    end cap is rerouted through the missing basis vectors; failure of that
    augmentation is reported, never ignored.
    """
    if diagram.shape != HALF_PLANE:
        raise ValueError("compactification applies to half-plane diagrams")
    for i, j in diagram.corners():
        d = det2(diagram.rods[i].structure, diagram.rods[j].structure)
        if d != 1:
            raise ValueError(
                f"corner between rods {i} and {j} is inadmissible (Det_2 = {d}); "
                "only manifold diagrams can be compactified"
            )

    horizon_fills = []
    structures = []  # current boundary walk, as sign-normalized structures
    merged_prev = False
    for idx, rod in enumerate(diagram.rods):
        if rod.is_axis:
            if merged_prev:
                merged_prev = False
            else:
                structures.append(rod.structure.v)
            continue
        v = diagram.rods[idx - 1].structure.v
        w = diagram.rods[idx + 1].structure.v
        kind, inserted = _gap_fill(v, w)
        horizon_fills.append(Fill("horizon", idx, kind, inserted))
        if kind == "merge":
            merged_prev = True  # the next axis rod fuses into the previous one
        else:
            structures.extend(inserted)

    first, last = structures[0], structures[-1]
    if len(structures) == 1:
        end_kind, end_inserted = "merge", ()
    else:
        end_kind, end_inserted = _gap_fill(last, first)
        if end_kind == "merge":
            structures.pop()  # the last rod fuses into the first
    if end_kind == "chain":
        structures.extend(end_inserted)
    end_cap = Fill("end", None, end_kind, end_inserted)

    disk = _build_disk(diagram.n, structures)
    waypoints = ()
    if not is_simply_connected(disk):
        # reroute the end cap through every basis direction missing from
        # the span of the walk that survives the reroute
        base = structures[: len(structures) - len(end_inserted)]
        waypoints = _missing_basis_vectors(diagram.n, base)
        if not waypoints:
            raise CompactifyError(
                "diagram is not simply connected yet no basis vector is missing"
            )
        first, last = base[0], base[-1] if len(base) > 1 else base[0]
        end_inserted = _chain_through(last, waypoints, first)
        end_cap = Fill("end", None, "chain", end_inserted)
        disk = _build_disk(diagram.n, list(base) + list(end_inserted))
        if not is_simply_connected(disk):
            raise CompactifyError(
                f"augmentation through {waypoints} failed to kill pi_1"
            )

    plan = FillinPlan(tuple(horizon_fills), end_cap, waypoints, disk)
    _check_plan(diagram, plan)
    return plan


def _build_disk(n, structures):
    try:
        return RodDiagram(n, DISK, [Rod.axis(v) for v in structures])
    except Exception as e:
        raise CompactifyError(f"fill-in produced an invalid diagram: {e}") from e


def _missing_basis_vectors(n, structures):
    snf = smith_normal_form(IntMatrix.from_columns(structures))
    missing = []
    for i in range(n):
        e = tuple(1 if j == i else 0 for j in range(n))
        if not _smith_span_contains(snf, e):
            missing.append(e)
    return tuple(missing)


def _check_plan(diagram, plan):
    # input axis structures must survive as a cyclic subsequence; merged
    # rods share one output rod, so the walk may wind around several times
    inputs = [s.v for s in diagram.structures()]
    out = [s.v for s in plan.diagram.structures()]
    walk = out * (len(inputs) + 1)
    pos = 0
    for v in inputs:
        while pos < len(walk) and walk[pos] != v:
            pos += 1
        if pos == len(walk):
            raise CompactifyError("an input axis rod vanished from the fill-in")
        pos += 1
    for i, j in plan.diagram.corners():
        d = det2(plan.diagram.rods[i].structure, plan.diagram.rods[j].structure)
        if d != 1:
            raise CompactifyError(
                f"fill-in left an inadmissible corner between rods {i} and {j}"
            )


# ----------------------------------------------------------------------
# classification of the compactified diagram


def _require_closed_simply_connected(diagram):
    if diagram.shape != DISK:
        raise ClassifyError("classification applies to disk diagrams")
    if diagram.horizon_indices():
        raise ClassifyError("the diagram still contains horizon rods")
    for i, j in diagram.corners():
        d = det2(diagram.rods[i].structure, diagram.rods[j].structure)
        if d != 1:
            raise ClassifyError(
                f"corner between rods {i} and {j} is inadmissible (Det_2 = {d})"
            )
    if not is_simply_connected(diagram):
        raise ClassifyError(
            f"diagram is not simply connected (pi_1 = {fundamental_group(diagram).display()})"
        )


def betti2(diagram: RodDiagram) -> int:
    """Second Betti number of the closed simply connected total space.

    Derived invariant: the corner count minus the torus rank, adopted from
    the classification literature for torus manifolds of cohomogeneity two
    and cross-checked on the standard sphere diagrams.
    """
    _require_closed_simply_connected(diagram)
    if diagram.n not in (2, 3, 4):
        raise ClassifyError(f"second Betti number chart needs n in 2..4, got {diagram.n}")
    corners = len(diagram.corners())
    k = corners - diagram.n
    if k < 0:
        raise ClassifyError("simply connected diagram cannot have fewer corners than n")
    return k


@dataclass(frozen=True)
class Classification:
    n: int
    k: int
    row: str  # "two_connected" | "spin" | "non_spin"
    summands: tuple  # (space, count) with count an int or a symbolic str
    display: str

    def to_json_dict(self):
        return {
            "n": self.n,
            "k": self.k,
            "family_row": self.row,
            "summands": [{"space": s, "count": c} for s, c in self.summands],
            "display": self.display,
            "betti2_note": "k = corners - n (derived invariant)",
        }


def _render(summands):
    parts = []
    for space, count in summands:
        if isinstance(count, str):
            parts.append(f"{count}({space})")
        elif count == 1:
            parts.append(f"({space})" if " " in space else space)
        elif count > 0:
            parts.append(f"{count}({space})")
    if not parts:
        return "S^?"
    if len(parts) == 1 and not isinstance(summands[0][1], str) and summands[0][1] > 1:
        return "#" + parts[0]
    return " # ".join(parts)


def classify(diagram: RodDiagram, spin: bool) -> Classification:
    """Homeomorphism type of the closed simply connected total space for
    torus rank 2, 3, or 4, following the k = 0 / spin / non-spin chart.

    Spin-ness is caller supplied; rank 2 spin manifolds need an even
    second Betti number.
    """
    k = betti2(diagram)
    n = diagram.n
    if k == 0:
        display = {2: "S^4", 3: "S^5", 4: "S^3 x S^3"}[n]
        return Classification(n, 0, "two_connected", ((display, 1),), display)
    if spin:
        if n == 2:
            if k % 2:
                raise ClassifyError(
                    f"a spin rank-2 diagram cannot have odd second Betti number (k = {k})"
                )
            summands = (("S^2 x S^2", k // 2),)
        elif n == 3:
            summands = (("S^2 x S^3", k),)
        else:
            summands = (("S^2 x S^4", k), ("S^3 x S^3", k + 1))
        return Classification(n, k, "spin", summands, _render(summands))
    if n == 2:
        summands = (("CP^2", "l"), ("~CP^2", "k-l"))
        display = f"l(CP^2) # (k-l)(~CP^2), 0 <= l <= k = {k}"
        return Classification(n, k, "non_spin", summands, display)
    if n == 3:
        summands = (("S^2 ~x S^3", 1), ("S^2 x S^3", k - 1))
    else:
        summands = (("S^2 ~x S^4", 1), ("S^2 x S^4", k - 1), ("S^3 x S^3", k + 1))
    return Classification(n, k, "non_spin", summands, _render(summands))
