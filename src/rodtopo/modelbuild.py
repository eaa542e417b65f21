"""Model maps on the (rho, z) half plane: the records, built from the rod
data in exact arithmetic and without numpy (rodtopo.modelmap evaluates
them in floats).  A model map is assembled from two ingredients.  A diagonal field
``diag(e^(U_0), ..., e^(U_(n-1)))``, the generalized Weyl form, carries one
harmonic potential per slot: U_k sums the rod potentials of the rods in
slot k, and U_k = 0 on a slot that holds no rod.  The rods are split
between slots 0 and 1 so that adjacent rods use different slots, which
pins the degeneracy pattern: e^(U_k) vanishes exactly on the slot-k rods.
A piecewise matrix curve M(z) of frames then rotates the diagonal kernel
directions onto the actual rod structures,

    F(rho, z) = M(z)^-T  diag(e^(U_0), ..., e^(U_(n-1)))  M(z)^-1 ,

holding the active rod's structure column of M exactly constant through
every transition, which is what keeps the tension bounded near the axis.
"""

from __future__ import annotations

import math
from collections import defaultdict
from itertools import product
from typing import NamedTuple

from .errors import ModelMapError
from .intlin import IntMatrix, _bareiss_det, hermite_normal_form
from .roddiagram import HALF_PLANE, NEG_INF, POS_INF, RodDiagram


# ----------------------------------------------------------------------
# records


class FrameSegment(NamedTuple):
    """One piece of a piecewise z-profile on [z_lo, z_hi): a plateau, or a
    smoothstep ramp from M0 to M1.  The values are exact tuples, so pieces
    compare by value and hash: the frame curve's pieces hold integer
    frames as tuples of matrix rows, the twist-potential profile's pieces
    the rods' potential tuples.  modelmap._profile_at evaluates them."""

    z_lo: float
    z_hi: float
    M0: tuple
    M1: tuple  # M0 itself on plateaus
    held_col: int | None = None

    @property
    def constant(self):
        return self.M0 == self.M1


class ModelMap(NamedTuple):
    diagram: RodDiagram
    terms: tuple  # per slot, the rod terms ("u", a) | ("v", a) | ("ud", a, b)
    segments: tuple  # frame curve M(z): FrameSegment partition of the z axis
    far_frame: tuple  # integer frame of the asymptotic region, as matrix rows
    z0: float  # far-field center
    omega_profile: tuple  # near-field omega(z): FrameSegment partition of the z axis
    blend_radii: tuple  # (R1, R2)


# ----------------------------------------------------------------------
# frames


def _frame(slot_cols, n):
    """Integer frame, as a tuple of columns, with the vector slot_cols[c]
    in each column c given; the other columns are standard basis vectors,
    chosen greedily to keep the columns independent, left to right."""
    cols = [tuple(slot_cols[c]) for c in sorted(slot_cols)]
    for i in range(n):
        e = tuple(int(j == i) for j in range(n))
        if len(cols) < n and (
            hermite_normal_form(IntMatrix.from_columns(cols + [e])).rank > len(cols)
        ):
            cols.append(e)
    if len(cols) != n:
        raise ModelMapError("could not complete the frame to a basis")
    completion = iter(cols[len(slot_cols):])
    return tuple(tuple(slot_cols[c]) if c in slot_cols else next(completion) for c in range(n))


def _det(frame):
    return _bareiss_det([list(col) for col in frame])


def _flip(frame, c):
    """The frame with column c negated."""
    return frame[:c] + (tuple(-x for x in frame[c]),) + frame[c + 1 :]


def _add(P, Q):
    return tuple(tuple(x + y for x, y in zip(p, q)) for p, q in zip(P, Q))


def _halves(rows):
    """The halves of a patch along its outer corner index, every corner
    doubled to keep the midpoint integral; the patch if it is constant."""
    lo, hi = rows
    if lo == hi:
        return [rows]
    mid = tuple(_add(P, Q) for P, Q in zip(lo, hi))
    return (tuple(_add(P, P) for P in lo), mid), (mid, tuple(_add(Q, Q) for Q in hi))


CERTIFICATE_DEPTH = 6  # halvings per axis before an undecided patch is rejected


def _det_keeps_sign(corners, sign, level=0):
    """Whether det has the sign of ``sign`` everywhere on a patch of frames.

    The patch is, column by column, the bilinear interpolation over
    (s, chi) in [0, 1]^2 of the integer frames ``corners = ((P00, P10),
    (P01, P11))``.  As det is multilinear in the columns, its tensor
    Bernstein coefficients, times positive binomials, are integer sums of
    det over the ways of taking each column from one corner.  If they all
    have the sign, that proves it; a corner det of 0 or the other sign
    refutes it at that exact point; otherwise the patch is halved along
    each axis it varies in, at most CERTIFICATE_DEPTH times.
    """
    s_axis, chi_axis = (range(1 + (a[0] != a[1])) for a in (tuple(zip(*corners)), corners))
    if any(sign * _det(corners[j][i]) <= 0 for j in chi_axis for i in s_axis):
        return False
    coeffs = defaultdict(int)
    for picks in product([(i, j) for j in chi_axis for i in s_axis], repeat=len(corners[0][0])):
        key = (sum(i for i, _ in picks), sum(j for _, j in picks))
        coeffs[key] += _det([corners[j][i][k] for k, (i, j) in enumerate(picks)])
    if all(sign * c > 0 for c in coeffs.values()):
        return True
    if level >= CERTIFICATE_DEPTH:
        return False
    parts = [tuple(zip(*q)) for half in _halves(corners) for q in _halves(tuple(zip(*half)))]
    return all(_det_keeps_sign(p, sign, level + 1) for p in parts)


def _profile_pieces(values, windows, held=None):
    """Piecewise z-profile: plateaus of the given values, south to north,
    joined by smoothstep ramps over the given (z_lo, z_hi) windows; ramp k
    runs from values[k] to values[k + 1] and holds column held[k]."""
    held = held or [None] * len(windows)
    pieces = []
    cursor = NEG_INF
    for k, (z_lo, z_hi) in enumerate(windows):
        if z_lo < cursor - 1e-12:
            raise ModelMapError(
                "frame transition windows overlap; rod intervals are too "
                "short for the transition layout"
            )
        pieces.append(FrameSegment(cursor, z_lo, values[k], values[k]))
        pieces.append(FrameSegment(z_lo, z_hi, values[k], values[k + 1], held[k]))
        cursor = z_hi
    pieces.append(FrameSegment(cursor, POS_INF, values[-1], values[-1]))
    return tuple(pieces)


# ----------------------------------------------------------------------
# construction


def build_model_map(diagram: RodDiagram, corrupt_transition: bool = False) -> ModelMap:
    """Model map for an admissible rod data set with nondegenerate horizons.

    The diagram must be a half-plane diagram carrying z-intervals on every
    rod and potential constants on every axis rod.  Every frame is an
    integer matrix, and the build proves in integers (_det_keeps_sign) that
    det keeps one sign on each transition ramp and on the radial blend of
    each frame piece toward the far frame; a path where det vanishes,
    changes sign, or stays undecided is rejected with a ModelMapError that
    names the ramp, its z-window and the determinants of its two frames.
    Far out, the twist potentials run from the north to the south end
    value over the polar angle (modelmap.EPSILON).
    ``corrupt_transition`` deliberately violates the constant-column
    constraint of the southern frame curve (a negative control for the
    tension verifier: the tension then blows up near the axis inside that
    transition).
    """
    _check_model_input(diagram)
    n = diagram.n

    comps = diagram.axis_components()
    rods = diagram.rods
    last = len(rods) - 1
    south_v = rods[0].structure.v
    north_v = rods[-1].structure.v
    ends_parallel = south_v == north_v

    slots = _assign_slots(diagram, comps, ends_parallel)

    terms = [[] for _ in range(n)]
    for i in diagram.axis_indices():
        z_lo, z_hi = rods[i].z
        term = (
            ("v", z_hi) if z_lo == NEG_INF else ("u", z_lo) if z_hi == POS_INF else ("ud", z_lo, z_hi)
        )
        terms[slots[i]].append(term)

    z_min, z_max = _finite_extent(diagram)
    z0 = 0.5 * (z_min + z_max)
    width = max(z_max - z_min, 1.0)

    # far frame: the end structures occupy their slots (one slot if parallel)
    far_frame = _frame({slots[0]: south_v, slots[last]: north_v}, n)
    segments = _build_schedule(diagram, comps, slots, far_frame, width)
    if corrupt_transition:
        segments = _corrupt_first_transition(segments, n)

    z_half = 0.5 * (z_max - z_min)
    R1 = z_half + 2.5 * width
    R2 = z_half + 4.5 * width

    return ModelMap(
        diagram=diagram,
        terms=tuple(map(tuple, terms)),
        segments=segments,
        far_frame=tuple(zip(*far_frame)),
        z0=z0,
        omega_profile=_omega_pieces(diagram, comps),
        blend_radii=(R1, R2),
    )


def _check_model_input(diagram):
    if diagram.shape != HALF_PLANE:
        raise ModelMapError("model maps are built over half-plane diagrams")
    if not diagram.has_geometry():
        raise ModelMapError("missing geometry: every rod needs a z-interval")
    for i in diagram.axis_indices():
        if diagram.rods[i].potential is None:
            raise ModelMapError(f"rod {i}: missing potential constant")
    bad = diagram.inadmissible_corner()
    if bad:
        raise ModelMapError("corner between rods %d and %d is inadmissible (Det_2 = %d)" % bad)


def _finite_extent(diagram):
    """The least and the greatest finite rod endpoint."""
    finite = [z for rod in diagram.rods for z in rod.z if math.isfinite(z)]
    return min(finite), max(finite)


def _assign_slots(diagram, comps, ends_parallel):
    last = len(diagram.rods) - 1
    slots = {}
    for comp in comps:
        # the north component is pinned by the far region (slot 0) and
        # alternates southwards; the south one starts in the slot its end
        # rod takes in the far frame
        order = comp[::-1] if comp[-1] == last else comp
        first = int(comp[0] == 0 and comp[-1] != last and not ends_parallel)
        for pos, i in enumerate(order):
            slots[i] = (first + pos) % 2
    if slots[0] != (0 if ends_parallel else 1):
        raise ModelMapError(
            "slot parity of the component joining both semi-infinite rods "
            "conflicts with the asymptotic region; apply a coordinate change "
            "or insert a horizon to decouple the ends"
        )
    return slots


def _comp_frames(diagram, comp, slots):
    """Anchor frames of one axis component, south to north: one per
    corner, holding both of its rods, or one for a lone rod."""
    rods = diagram.rods
    pairs = list(zip(comp, comp[1:])) or [comp]
    return [_frame({slots[i]: rods[i].structure.v for i in pair}, diagram.n) for pair in pairs]


def _build_schedule(diagram, comps, slots, far_frame, width):
    """Piecewise frame curve: plateaus joined by smoothstep transitions.

    The frames run south to north, from the far frame back to it; between
    consecutive frames lie a transition window and the column that the
    transition holds (None across a horizon).
    """
    rods = diagram.rods
    last = len(rods) - 1
    b0 = rods[0].z[1]
    frames = [far_frame]
    windows = [(b0 - 1.6 * width, b0 - 0.6 * width)]
    held = [slots[0]]
    for ci, comp in enumerate(comps):
        frames += _comp_frames(diagram, comp, slots)
        for i in comp[1:-1]:  # transitions inside a component run along its inner rods
            z_lo, z_hi = rods[i].z
            span = z_hi - z_lo
            windows.append((z_lo + 0.3 * span, z_hi - 0.3 * span))
            held.append(slots[i])
        if ci + 1 < len(comps):
            # validation forbids adjacent horizons: one rod fills the gap
            hz = rods[comp[-1] + 1].z
            span = hz[1] - hz[0]
            windows.append((hz[0] + 0.2 * span, hz[1] - 0.2 * span))
            held.append(None)

    a_last = rods[last].z[0]
    windows.append((a_last + 0.6 * width, a_last + 1.6 * width))
    held.append(slots[last])
    frames.append(far_frame)

    sign = _normalize_chain(frames, held, windows)
    # the radial blend walks each frame of a ramp toward the far frame;
    # the plateaus are the ramps' edges s = 0 and s = 1
    for k, ramp in enumerate(zip(frames, frames[1:])):
        if not _det_keeps_sign((ramp, (far_frame, far_frame)), sign):
            raise _degenerate("radial frame blend", k, windows, *ramp)
    return _profile_pieces([tuple(zip(*f)) for f in frames], windows, held)


def _degenerate(path, k, windows, P, Q):
    """The error for a path of ramp k (from 0, south to north) from P to Q."""
    return ModelMapError(
        f"{path} passes through a degenerate matrix on ramp {k + 1} of {len(windows)} from the "
        f"south (z in [{windows[k][0]:g}, {windows[k][1]:g}], between frames of det {_det(P)} "
        f"and {_det(Q)}); the diagram needs a different frame completion"
    )


_OBSTRUCTION = (
    " obstruction at the asymptotic end; apply a unimodular change of coordinates first"
)


def _normalize_chain(frames, held, windows):
    """Fix held-column signs and determinant signs along the frames, prove
    each ramp between them invertible, and return the first frame's det.

    Walking north, each frame may be adjusted by column negations: the
    column held[k - 1] must match the previous frame exactly, and
    determinants must keep one sign.  The final frame is the far frame
    again and cannot be adjusted; an unresolvable sign there is reported.
    """
    n = len(frames[0])
    target = _det(frames[0])
    for k in range(1, len(frames)):
        prev, col = frames[k - 1], held[k - 1]
        is_last = k == len(frames) - 1
        if col is not None and frames[k][col] != prev[col]:
            if _flip(frames[k], col)[col] != prev[col]:
                raise ModelMapError("held column mismatch between frames")
            if is_last:
                raise ModelMapError("frame sign" + _OBSTRUCTION)
            frames[k] = _flip(frames[k], col)
        if _det(frames[k]) * target < 0:
            if is_last:
                raise ModelMapError("frame determinant sign" + _OBSTRUCTION)
            # prefer a column held by neither adjacent transition; flipping
            # a column held by the next one just propagates northwards
            next_held = held[k] if k < len(held) else None
            candidates = [c for c in range(n - 1, -1, -1) if c != col]
            flip = next((c for c in candidates if c != next_held), candidates[0])
            frames[k] = _flip(frames[k], flip)
        ramp = (prev, frames[k])
        if ramp[0] != ramp[1] and not _det_keeps_sign((ramp, ramp), target):
            raise _degenerate("frame transition", k - 1, windows, *ramp)
    return target


def _corrupt_first_transition(segments, n):
    """The frame curve with the end frame of its first held-column ramp
    moved off the held column."""
    for k, seg in enumerate(segments):
        if not seg.constant and seg.held_col is not None:
            bad, i, j = [list(row) for row in seg.M1], (seg.held_col + 1) % n, seg.held_col
            bad[i][j] += 1
            if _bareiss_det([row[:] for row in bad]) == 0:
                bad[i][j] += 1
            return segments[:k] + (seg._replace(M1=tuple(map(tuple, bad))),) + segments[k + 1 :]
    raise ModelMapError("no held-column transition available to corrupt")


def _omega_pieces(diagram, comps):
    """Piecewise z-profile of the near-field twist potentials: each axis
    component's potential tuple on a plateau, smoothstep ramps over the
    middle half of each horizon gap.  The end plateaus hold the north and
    south values that omega takes far out.
    """
    rods = diagram.rods
    # validation makes the potentials equal across every corner
    consts = [rods[comp[0]].potential for comp in comps]
    windows = []
    for comp, north in zip(comps, comps[1:]):
        gap_lo = rods[comp[-1]].z[1]
        gap_hi = rods[north[0]].z[0]
        span = gap_hi - gap_lo
        windows.append((gap_lo + 0.25 * span, gap_hi - 0.25 * span))
    return _profile_pieces(consts, windows)
