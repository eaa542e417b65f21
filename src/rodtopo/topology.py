"""Fundamental groups, fill-in chains, compactification, classification.

The fundamental group of a simple torus manifold is Z^n modulo the integer
span of its rod structures: trivial when windows of n consecutive
structures certify Det_n = 1, read off the Smith normal form otherwise.
Horizons and the asymptotic end can always be filled in by finite chains
of structures with admissible corners; choosing the chains so the
filled-in diagram has full integer span produces a simply connected
closed diagram, which the low-dimensional chart then classifies.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple, Optional

from .errors import ClassifyError, CompactifyError, RodTopoError
from .intlin import (
    IntMatrix,
    determinant_divisor,
    hermite_normal_form,
    smith_normal_form,
)
from .roddiagram import (
    DISK,
    HALF_PLANE,
    Rod,
    RodDiagram,
    RodStructure,
    asymptotic_end,
    _as_vector,
    _det2,
    _normalize_sign,
    _plane_reading,
    _require_primitive,
)


class _AbelianGroup(NamedTuple):
    free_rank: int
    torsion: tuple  # entries > 1, each dividing the next


class AbelianGroup(_AbelianGroup):
    """Finitely generated abelian group Z^free_rank + sum of Z_s torsion."""

    __slots__ = ()

    def __new__(cls, free_rank, torsion):
        if free_rank < 0:
            raise RodTopoError(f"negative free rank {free_rank}")
        for a, b in zip(torsion, torsion[1:]):
            if not (a > 1 and b % a == 0):
                raise RodTopoError(f"torsion {torsion} is not a divisibility chain")
        if torsion and torsion[0] <= 1:
            raise RodTopoError(f"torsion {torsion} has a trivial factor")
        return super().__new__(cls, free_rank, torsion)

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
    """pi_1 of the total space: Z^n / span_Z of the rod structures (see
    _quotient), computed once per diagram."""
    if diagram._pi1 is None:
        diagram._pi1 = _quotient(diagram.n, [s.v for s in diagram.structures()])
    return diagram._pi1


def _quotient(n, vs):
    """Z^n / span_Z of a cyclic walk vs of structures.

    The group is trivial exactly when Det_n of the structure matrix is 1.
    Det_n divides every n x n minor, so windows of n cyclically
    consecutive structures whose determinants reach gcd 1 certify the
    trivial group without a normal form.  Otherwise the Smith form
    decides.
    """
    k = len(vs)
    if k >= n:
        ring = vs + vs[: n - 1]
        g = 0
        # a walk of exactly n structures has one window up to rotation
        for i in range(k if k > n else 1):
            # the window's structures as rows: det A^T = det A
            window = IntMatrix._trusted(tuple(ring[i : i + n]))
            g = gcd(g, determinant_divisor(window, n))
            if g == 1:
                return AbelianGroup(0, ())
    snf = smith_normal_form(IntMatrix.from_columns(vs))
    return AbelianGroup(n - snf.rank, tuple(s for s in snf.divisors if s > 1))


def is_simply_connected(diagram: RodDiagram) -> bool:
    """True iff Z^n / span_Z of the rod structures is trivial (see
    fundamental_group, whose windows usually decide without a Smith form)."""
    return fundamental_group(diagram).trivial


def end_pi1(diagram: RodDiagram) -> AbelianGroup:
    """pi_1 of the asymptotic end cross-section times its torus factor."""
    cs = asymptotic_end(diagram)
    if cs.family == "S3":
        return AbelianGroup(cs.torus_factor, ())
    if cs.family == "S1xS2":
        return AbelianGroup(cs.torus_factor + 1, ())
    return AbelianGroup(cs.torus_factor, (cs.p,))


# ----------------------------------------------------------------------
# fill-in chains


def _continued_fraction(p: int, q: int):
    """Regular continued fraction [a0; a1, ...] of p/q for p > q >= 1,
    empty for q = 0."""
    terms = []
    while q:
        terms.append(p // q)
        p, q = q, p % q
    return terms


def fillin_path(v, w):
    """Chain v = u_1, ..., u_k = w of primitive vectors with consecutive
    second determinant divisors equal to 1, for primitive v and w (a
    non-primitive one raises CompactifyError).

    The plane reading of [v w] (see _plane_reading) gives its Hermite
    form [e1 (q, p, 0, ...)] with p = Det_2(v, w) and the vector
    u = (w - q v) / p, certified integral, so Det_2(v, u) = 1.  The chain
    is built from the continued-fraction convergents (x, y) of p/q as
    x v + y u, which is Q^-1 (x, y, 0, ...) without any normal form.
    Consecutive convergents satisfy x y' - x' y = +-1 for any partial
    quotients, so every link has Det_2 = 1 by construction; the last
    convergent is checked to be (q, p), so the chain ends at w.  Parallel
    inputs get one intermediate vector, a column of Q^-1 from the Hermite
    form: Q is unimodular with Q v = e1, so both links have Det_2 = 1.
    """
    v, w = _as_vector(v), _as_vector(w)
    _require_primitive(v, w, CompactifyError)
    p = _det2(v, w)
    if p == 0:
        # parallel structures: route through a basis-completing vector
        res = hermite_normal_form(IntMatrix.from_columns([v, w]))
        u = res.Q.inverse_unimodular() @ tuple(1 if i == 1 else 0 for i in range(len(v)))
        return [v, u, w]
    q, u = _plane_reading(v, w, p, CompactifyError)
    plane_chain = [(1, 0), (0, 1)]
    h_prev, h_cur = 0, 1  # numerators h_{-2}, h_{-1}
    k_prev, k_cur = 1, 0  # denominators k_{-2}, k_{-1}
    for a in _continued_fraction(p, q):
        h_prev, h_cur = h_cur, a * h_cur + h_prev
        k_prev, k_cur = k_cur, a * k_cur + k_prev
        plane_chain.append((k_cur, h_cur))
    if plane_chain[-1] != (q, p):
        raise CompactifyError(f"convergents end at {plane_chain[-1]}, not at {(q, p)}")
    # (1, 0) maps to v and (q, p) to q v + p u = w, exactly
    return [tuple(x * a + y * b for a, b in zip(v, u)) for x, y in plane_chain]


# ----------------------------------------------------------------------
# compactification


class Fill(NamedTuple):
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


class FillinPlan(NamedTuple):
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
    """Fill kind and inserted interior vectors for a gap flanked by the
    structure tuples v, w."""
    d = _det2(v, w)
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

    The walk runs over the axis components, south to north.  The horizon
    between components ``left`` and ``right`` is a gap flanked by the
    structures v = left[-1] and w = right[0]: it is closed by a new corner
    when Det_2 = 1, by dropping right[0] (the two rods merge) when v = w,
    and by inserting a fill-in chain otherwise.  The end gap, from the
    last structure of the walk back to the first, is closed the same way
    but stays out of the walk: if the walk and its end cap are not simply
    connected, the cap is rerouted through the basis vectors missing from
    the walk's span; failure of that augmentation is reported, never
    ignored.  The disk is built once, from the walk and its final cap, and
    no corner of it is re-checked: each is certified where it is made (see
    the comment at the end).
    """
    if diagram.shape != HALF_PLANE:
        raise ValueError("compactification applies to half-plane diagrams")
    bad = diagram.inadmissible_corner()
    if bad:
        raise ValueError(
            "corner between rods %d and %d is inadmissible (Det_2 = %d); "
            "only manifold diagrams can be compactified" % bad
        )

    rods = diagram.rods
    comps = [[rods[i].structure.v for i in comp] for comp in diagram.axis_components()]
    horizon_fills = []
    walk = list(comps[0])
    for idx, left, right in zip(diagram.horizon_indices(), comps, comps[1:]):
        kind, inserted = _gap_fill(left[-1], right[0])
        horizon_fills.append(Fill("horizon", idx, kind, inserted))
        walk.extend(inserted)
        walk.extend(right[1:] if kind == "merge" else right)

    # a one-structure walk closes on itself: its end gap is a merge
    end_kind, end_inserted = _gap_fill(walk[-1], walk[0])
    if end_kind == "merge" and len(walk) > 1:
        walk.pop()  # the last rod fuses into the first
    waypoints = ()
    pi1 = _quotient(diagram.n, walk + list(end_inserted))
    if not pi1.trivial:
        waypoints = _missing_basis_vectors(diagram.n, walk)
        if not waypoints:
            raise CompactifyError(
                "diagram is not simply connected yet no basis vector is missing"
            )
        end_kind, end_inserted = "chain", _chain_through(walk[-1], waypoints, walk[0])
        pi1 = _quotient(diagram.n, walk + list(end_inserted))
        if not pi1.trivial:
            raise CompactifyError(f"augmentation through {waypoints} failed to kill pi_1")

    # Every corner of the walk, the closing one included, has Det_2 = 1
    # where it is made: an input corner passed the gate above, a "corner"
    # fill took Det_2 = 1 in _gap_fill, and each link of a fill-in chain
    # has Det_2 = 1 (see fillin_path).  A merge (Det_2 = 0, which for
    # sign-normalized primitive structures means equal neighbours) drops
    # one of two equal structures, so the corner it leaves is one of those
    # kinds, and the input structures survive in cyclic order.  The disk's
    # structures are the walk's up to sign, so they span the same lattice
    # and its pi_1 is the one just certified.
    disk = _build_disk(diagram.n, walk + list(end_inserted))
    disk._pi1 = pi1
    end_cap = Fill("end", None, end_kind, end_inserted)
    return FillinPlan(tuple(horizon_fills), end_cap, waypoints, disk)


def _build_disk(n, structures):
    """The disk diagram of the walk's integer tuples, each primitive where
    it was made or checked, as sign-normalized structures; the disk still
    validates itself."""
    try:
        return RodDiagram(n, DISK, [Rod("axis", RodStructure(_normalize_sign(v)))
                                    for v in structures])
    except Exception as e:
        raise CompactifyError(f"fill-in produced an invalid diagram: {e}") from e


def _missing_basis_vectors(n, structures):
    """The basis vectors e_i outside the integer span of the structures.
    With U A V = S the Smith form, e_i lies in the span iff each entry of
    U e_i, column i of U, is a multiple of its divisor, where a zero
    divisor, or a row past the last divisor, admits only 0."""
    snf = smith_normal_form(IntMatrix.from_columns(structures))
    divisors = snf.divisors + (0,) * (n - len(snf.divisors))
    return tuple(
        tuple(int(j == i) for j in range(n))
        for i, column in enumerate(snf.U.columns())
        if any(u % s if s else u for u, s in zip(column, divisors))
    )


# ----------------------------------------------------------------------
# classification of the compactified diagram


def _require_closed_simply_connected(diagram):
    if diagram.shape != DISK:
        raise ClassifyError("classification applies to disk diagrams")
    if diagram.horizon_indices():
        raise ClassifyError("the diagram still contains horizon rods")
    bad = diagram.inadmissible_corner()
    if bad:
        raise ClassifyError("corner between rods %d and %d is inadmissible (Det_2 = %d)" % bad)
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


class Classification(NamedTuple):
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
    """The connected sum of the summands of positive integer count; the
    first one's count is at least 1."""
    parts = []
    for space, count in summands:
        if count == 1:
            parts.append(f"({space})" if " " in space else space)
        elif count > 0:
            parts.append(f"{count}({space})")
    if len(parts) == 1 and summands[0][1] > 1:
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
