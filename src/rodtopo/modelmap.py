"""Model maps on the (rho, z) half plane and their tension diagnostics.

The map is assembled from two ingredients.  A diagonal field
``diag(e^U, e^V, 1, ..., 1)`` built from the harmonic rod potentials, with
the rods split between the two slots so that adjacent rods use different
slots, pins the degeneracy pattern: e^U vanishes exactly on the slot-0
rods and e^V on the slot-1 rods.  A piecewise matrix curve M(z) of frames
then rotates the diagonal kernel directions onto the actual rod
structures,

    F(rho, z) = M(z)^-T  diag(e^U, e^V, 1, ..., 1)  M(z)^-1 ,

holding the active rod's structure column of M exactly constant through
every transition, which is what keeps the tension bounded near the axis.
Wherever M is constant and omega is constant the map is exactly harmonic;
the leftover tension lives in the frame transitions and in the angular
twist-potential interpolation at infinity, which decays like r^(-5/2).
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field, fields
from itertools import product
from typing import NamedTuple

import numpy as np

from .errors import ModelMapError
from .intlin import IntMatrix, _bareiss_det, hermite_normal_form
from .roddiagram import HALF_PLANE, NEG_INF, POS_INF, RodDiagram, det2


# ----------------------------------------------------------------------
# harmonic potentials


def potentials(a, rho, z):
    """The two harmonic functions u_a = log(r_a - (z - a)) and
    v_a = log(r_a + (z - a)) attached to the axis point z = a.

    On the axis above a the first is -inf (e^u = 0); below, the second.
    Evaluation at the point (0, a) itself is undefined.
    """
    rho = float(rho)
    z = float(z)
    if rho == 0.0 and z == a:
        raise ValueError("potentials are singular at the axis point itself")
    rho, z = np.asarray(rho), np.asarray(z)
    log_rho2 = _log_rho2(rho)
    return _u_pot(a, rho, z, log_rho2).item(), _v_pot(a, rho, z, log_rho2).item()


def _log_rho2(rho):
    """2 log rho (-inf on the axis), shared by every rod term at the points."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return 2.0 * np.log(rho)


def _endpoint_log(a, rho, z):
    """(z - a, log(r_a + |z - a|)) at the points: the one logarithm that
    both potentials of the axis point a take (see _u_from, _v_from)."""
    dz = z - a
    with np.errstate(divide="ignore"):
        return dz, np.log(np.hypot(rho, dz) + np.abs(dz))


def _u_from(dz, L, log_rho2):
    """u_a = log(r_a - (z - a)) from _endpoint_log's (dz, L): L itself for
    z < a, the cancellation-free log_rho2 - log(r_a + (z - a)) for z >= a.
    r_a + |dz| is bit for bit the argument of whichever branch is kept."""
    with np.errstate(invalid="ignore"):
        return np.where(dz >= 0, log_rho2 - L, L)


def _v_from(dz, L, log_rho2):
    """v_a = log(r_a + (z - a)), _u_from mirrored in z."""
    with np.errstate(invalid="ignore"):
        return np.where(dz <= 0, log_rho2 - L, L)


def _u_pot(a, rho, z, log_rho2):
    """log(r_a - (z - a)), cancellation-free for z > a; log_rho2 is
    _log_rho2(rho)."""
    return _u_from(*_endpoint_log(a, rho, z), log_rho2)


def _v_pot(a, rho, z, log_rho2):
    """log(r_a + (z - a)), cancellation-free for z < a."""
    return _v_from(*_endpoint_log(a, rho, z), log_rho2)


def _smoothstep(t):
    """C^2 quintic smoothstep on [0, 1]."""
    t = np.clip(t, 0.0, 1.0)
    return t * t * t * (t * (6.0 * t - 15.0) + 10.0)


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


def _matrix(frame):
    return np.array(list(zip(*frame)), dtype=float)


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


@dataclass
class FrameSegment:
    """One piece of a piecewise z-profile on [z_lo, z_hi): a plateau, or a
    smoothstep ramp from M0 to M1.  The frame curve's pieces hold
    matrices, the twist-potential profile's pieces hold vectors."""

    z_lo: float
    z_hi: float
    M0: np.ndarray
    M1: np.ndarray  # equal to M0 on plateaus
    held_col: int | None = None

    @property
    def constant(self):
        return self.M0 is self.M1 or np.array_equal(self.M0, self.M1)

    def eval(self, z):
        """Values at the given z values (array), shape z.shape + M0.shape."""
        z = np.asarray(z, dtype=float)
        if self.constant:
            return np.broadcast_to(self.M0, z.shape + self.M0.shape)
        t = (z - self.z_lo) / (self.z_hi - self.z_lo)
        s = _smoothstep(t)
        return self.M0 + s.reshape(s.shape + (1,) * self.M0.ndim) * (self.M1 - self.M0)


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
    return pieces


def _profile_at(pieces, z):
    """A piecewise z-profile at the z values (array); each piece serves the
    z in its half-open [z_lo, z_hi) and is evaluated once; NaN elsewhere."""
    out = np.full(z.shape + pieces[0].M0.shape, np.nan)
    for piece in pieces:
        hit = (z >= piece.z_lo) & (z < piece.z_hi)
        if hit.any():
            out[hit] = piece.eval(z[hit])
    return out


# ----------------------------------------------------------------------
# the model map


class _ZStage(NamedTuple):
    """The z-only factors of the map at sorted distinct z values: the
    near-field twist potentials omega(z), the frames A(z), their inverses
    and 1/det A, and the rank-one factors of F and F^-1 where the radial
    blend leaves the frame at A(z),

        F = sum_k d_k a_k a_k^T,    F^-1 = sum_k m_k m_k^T / d_k,

    over the rows a_k of A^-1 and the columns m_k of A:
    row_outer[k, i, j] = a_k[i] a_k[j] and col_outer[k, i, j] =
    m_k[i] m_k[j], stored (k, i, j, z) so that every entry is a
    contiguous z row."""

    z: np.ndarray
    omega: np.ndarray
    A: np.ndarray
    A_inv: np.ndarray
    det_inv: np.ndarray
    row_outer: np.ndarray
    col_outer: np.ndarray


@dataclass
class ModelMap:
    n: int
    diagram: RodDiagram
    slots: dict  # rod index -> 0 or 1
    u_terms: list  # ("u", a) | ("v", a) | ("ud", a, b)
    v_terms: list
    segments: list  # frame curve M(z): FrameSegment partition of the z axis
    far_frame: np.ndarray  # frame of the asymptotic region
    z0: float  # far-field center
    omega_profile: list  # near-field omega(z): FrameSegment partition of the z axis
    omega_far: tuple  # (c_north, c_south)
    epsilon: float
    blend_radii: tuple  # (R1, R2)
    axis_segments: list  # (z_lo, z_hi) per axis rod, for distance queries

    # ------------------------------------------------------------------

    def _UV(self, rho, z):
        """(U, V) at the points, with one logarithm per distinct rod
        endpoint (_endpoint_log) shared by every term that uses it."""
        U = np.zeros_like(rho)
        V = np.zeros_like(rho)
        log_rho2 = _log_rho2(rho)
        ends = {a for term in self.u_terms + self.v_terms for a in term[1:]}
        logs = {a: _endpoint_log(a, rho, z) for a in ends}
        for acc, terms in ((U, self.u_terms), (V, self.v_terms)):
            for term in terms:
                if term[0] == "u":
                    acc += _u_from(*logs[term[1]], log_rho2)
                elif term[0] == "v":
                    acc += _v_from(*logs[term[1]], log_rho2)
                else:
                    # on the axis north of the rod both terms are -inf; the
                    # difference there is its limit log((z - b) / (z - a))
                    _, a, b = term
                    ua, ub = _u_from(*logs[a], log_rho2), _u_from(*logs[b], log_rho2)
                    north = (rho == 0.0) & (z > b)
                    if north.any():
                        zn = z[north]
                        ua[north] = np.log((zn - b) / (zn - a))
                        ub[north] = 0.0
                    acc += ua - ub
        return U, V

    def axis_frames(self, z):
        """Frame curve M(z) used near the axis, before the radial blend."""
        return _profile_at(self.segments, np.asarray(z, dtype=float))

    def _blend_weight(self, rho, z):
        """Radial blend weight chi: 0 within R1 of the far-field center,
        1 beyond R2."""
        R1, R2 = self.blend_radii
        return _smoothstep((np.hypot(rho, z - self.z0) - R1) / (R2 - R1))

    def _z_stage(self, z_axis):
        """The map's z-only factors at sorted distinct z values (a
        _ZStage): the near-field omega profile, one inverse and one
        determinant of the frame curve per z, and the rank-one factors
        that give F and F^-1 wherever chi = 0.  The tension kernel
        evaluates it once per grid level, or once per distinct z of a
        probe batch."""
        A = self.axis_frames(z_axis)
        A_inv = np.linalg.inv(A)
        rows = np.moveaxis(A_inv, 0, -1)  # rows[k, i] = a_k[i], z last
        cols = np.moveaxis(A, 0, -1).swapaxes(0, 1)  # cols[k, i] = m_k[i]
        return _ZStage(
            z_axis, _profile_at(self.omega_profile, z_axis),
            A, A_inv, 1.0 / np.linalg.det(A),
            rows[:, :, None] * rows[:, None], cols[:, :, None] * cols[:, None],
        )

    def _coords(self, points, level=None):
        """rho, z, the z stage with each point's index into it, and chi.

        A grid level passes its own z stage, whose z values are the last
        axis of the points; otherwise the distinct z are found here."""
        pts = np.asarray(points, dtype=float)
        rho, z = pts[..., 0], pts[..., 1]
        if level is None:
            z_axis, at = np.unique(z, return_inverse=True)
            level, at = self._z_stage(z_axis), at.reshape(z.shape)
        else:
            at = np.broadcast_to(np.arange(level.z.size), z.shape)
        return rho, z, level, at, self._blend_weight(rho, z)

    def _exp_uv(self, rho, z):
        """(e^U, e^V), the two non-unit entries of d, at the points."""
        U, V = self._UV(rho, z)
        return np.exp(U), np.exp(V)

    def _blended(self, stage, at, chi):
        """M, M^-1 and det M^-1 at points with chi > 0, given as flat
        arrays of stage indices and weights: the z stage's frame blended
        toward the far frame, M = A(z) + chi (far - A(z))."""
        A = stage.A[at]
        M = A + chi[:, None, None] * (self.far_frame - A)
        return M, np.linalg.inv(M), 1.0 / np.linalg.det(M)

    def frame_factors(self, points):
        """(M, M^-1, d) at an (N, 2) array of (rho, z) points, with
        F = M^-T diag(d) M^-1 and d = (e^U, e^V, 1, ..., 1).

        The frame field is the z-curve blended radially into the far
        frame, M = A(z) + chi (far - A(z)), so every transition stays
        inside a bounded region.  Both frames carry the semi-infinite rod
        structures in their columns, so the blend respects the kernel
        directions along the end rods.  A and its inverse are evaluated
        once per distinct z; only points with chi > 0 get their own
        blended frame and inverse (where chi = 0 the blend is exactly A).
        """
        rho, z, stage, at, chi = self._coords(points)
        M, Minv = stage.A[at], stage.A_inv[at]
        blend = chi > 0.0
        if blend.any():
            M[blend], Minv[blend], _ = self._blended(stage, at[blend], chi[blend])
        return M, Minv, _diag(*self._exp_uv(rho, z), self.n)

    def F(self, points):
        """Matrix field at an (N, 2) array of (rho, z) points; (N, n, n),
        by the tension kernel's rule (see _metric)."""
        return _metric(self, self._coords(points), inverse=False)[0]

    def omega(self, points):
        """Twist-potential field at an (N, 2) array of points; (N, n).  The zone
        profile runs once per distinct z (in the z stage), the far profile
        only where chi > 0."""
        return self._omega(*self._coords(points))

    def _omega(self, rho, z, level, at, chi):
        near = level.omega[at]
        blend = chi > 0.0
        if blend.any():
            c_north, c_south = map(np.asarray, self.omega_far)
            theta = np.arctan2(rho[blend], z[blend] - self.z0)  # 0 at the north axis
            span = math.pi - 2.0 * self.epsilon
            s_theta = _smoothstep((theta - self.epsilon) / span)
            far = c_north + s_theta[:, None] * (c_south - c_north)
            c = chi[blend][:, None]
            near[blend] = (1.0 - c) * near[blend] + c * far
        return near

    def distance_to_axis(self, points):
        pts = np.asarray(points, dtype=float)
        rho, z = pts[..., 0], pts[..., 1]
        # hypot is monotone in |dz|, so the hypot of the least z-gap is the
        # least hypot over the segments, bit for bit
        gap = np.full(rho.shape, np.inf)
        for z_lo, z_hi in self.axis_segments:
            np.minimum(gap, np.maximum(np.maximum(z_lo - z, z - z_hi), 0.0), out=gap)
        return np.hypot(rho, gap)


# ----------------------------------------------------------------------
# construction


def build_model_map(
    diagram: RodDiagram,
    epsilon: float = 0.2,
    corrupt_transition: bool = False,
) -> ModelMap:
    """Model map for an admissible rod data set with nondegenerate horizons.

    The diagram must be a half-plane diagram carrying z-intervals on every
    rod and potential constants on every axis rod.  Every frame is an
    integer matrix, and the build proves in integers (_det_keeps_sign) that
    det keeps one sign on each transition ramp and on the radial blend of
    each frame piece toward the far frame; a path where det vanishes,
    changes sign, or stays undecided is rejected.  ``corrupt_transition``
    then deliberately violates the constant-column constraint of the
    southern frame curve (a negative control for the tension verifier: the
    tension then blows up near the axis inside that transition).
    """
    _check_model_input(diagram)
    if not 0.0 <= epsilon < 0.5 * math.pi:
        raise ModelMapError(f"epsilon = {epsilon} must lie in [0, pi/2)")
    n = diagram.n

    comps = diagram.axis_components()
    rods = diagram.rods
    last = len(rods) - 1
    south_v = rods[0].structure.v
    north_v = rods[-1].structure.v
    ends_parallel = south_v == north_v

    slots = _assign_slots(diagram, comps, ends_parallel)

    u_terms, v_terms = [], []
    for i in diagram.axis_indices():
        z_lo, z_hi = rods[i].z
        if z_lo == NEG_INF:
            term = ("v", z_hi)
        elif z_hi == POS_INF:
            term = ("u", z_lo)
        else:
            term = ("ud", z_lo, z_hi)
        (u_terms if slots[i] == 0 else v_terms).append(term)

    finite = [z for r in rods for z in r.z if math.isfinite(z)]
    z_min, z_max = min(finite), max(finite)
    z0 = 0.5 * (z_min + z_max)
    width = max(z_max - z_min, 1.0)

    # far frame: the end structures occupy their slots (one slot if parallel)
    far_frame = _frame({slots[0]: south_v, slots[last]: north_v}, n)
    segments = _build_schedule(diagram, comps, slots, far_frame, width)
    far_frame = _matrix(far_frame)
    if corrupt_transition:
        _corrupt_first_transition(segments, n)

    omega_profile, c_north, c_south = _omega_pieces(diagram, comps)

    z_half = 0.5 * (z_max - z_min)
    R1 = z_half + 2.5 * width
    R2 = z_half + 4.5 * width

    axis_segments = [rods[i].z for i in diagram.axis_indices()]

    return ModelMap(
        n=n,
        diagram=diagram,
        slots=slots,
        u_terms=u_terms,
        v_terms=v_terms,
        segments=segments,
        far_frame=far_frame,
        z0=z0,
        omega_profile=omega_profile,
        omega_far=(c_north, c_south),
        epsilon=epsilon,
        blend_radii=(R1, R2),
        axis_segments=axis_segments,
    )


def _check_model_input(diagram):
    if diagram.shape != HALF_PLANE:
        raise ModelMapError("model maps are built over half-plane diagrams")
    if not diagram.has_geometry():
        raise ModelMapError("missing geometry: every rod needs a z-interval")
    for i in diagram.axis_indices():
        if diagram.rods[i].potential is None:
            raise ModelMapError(f"rod {i}: missing potential constant")
    for i, j in diagram.corners():
        d = det2(diagram.rods[i].structure, diagram.rods[j].structure)
        if d != 1:
            raise ModelMapError(
                f"corner between rods {i} and {j} is inadmissible (Det_2 = {d})"
            )


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

    sign = _normalize_chain(frames, held)
    # the radial blend walks each frame of a ramp toward the far frame;
    # the plateaus are the ramps' edges s = 0 and s = 1
    for ramp in zip(frames, frames[1:]):
        if not _det_keeps_sign((ramp, (far_frame, far_frame)), sign):
            raise ModelMapError("radial frame blend" + _DEGENERATE)
    return _profile_pieces([_matrix(f) for f in frames], windows, held)


_DEGENERATE = " passes through a degenerate matrix; the diagram needs a different frame completion"
_OBSTRUCTION = (
    " obstruction at the asymptotic end; apply a unimodular change of coordinates first"
)


def _normalize_chain(frames, held):
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
            raise ModelMapError("frame transition" + _DEGENERATE)
    return target


def _corrupt_first_transition(segments, n):
    for seg in segments:
        if not seg.constant and seg.held_col is not None:
            bad, entry = seg.M1.copy(), ((seg.held_col + 1) % n, seg.held_col)
            bad[entry] += 1.0
            if _bareiss_det(bad.astype(int).tolist()) == 0:
                bad[entry] += 1.0
            seg.M1 = bad
            return
    raise ModelMapError("no held-column transition available to corrupt")


def _omega_pieces(diagram, comps):
    """Piecewise z-profile of the near-field twist potentials: constant on
    each axis component, smoothstep ramps over the middle half of each
    horizon gap.  Returns (pieces, c_north, c_south).
    """
    rods = diagram.rods
    # validation makes the potentials equal across every corner
    consts = [np.array(rods[comp[0]].potential, dtype=float) for comp in comps]
    windows = []
    for comp, north in zip(comps, comps[1:]):
        gap_lo = rods[comp[-1]].z[1]
        gap_hi = rods[north[0]].z[0]
        span = gap_hi - gap_lo
        windows.append((gap_lo + 0.25 * span, gap_hi - 0.25 * span))
    return _profile_pieces(consts, windows), consts[-1], consts[0]


# ----------------------------------------------------------------------
# tension


STRIP_ROWS = 16  # rho rows of tension_field's output computed per strip


def _congruence(X, d):
    """X^T diag(d) X over stacks of matrices."""
    return np.swapaxes(X, -1, -2) @ (d[..., None] * X)


def _diag(e_u, e_v, n):
    """d = (e^U, e^V, 1, ..., 1) at the points; (..., n)."""
    d = np.ones(e_u.shape + (n,))
    d[..., 0] = e_u
    d[..., 1] = e_v
    return d


def _rank_one_sum(outer, w0, w1, at=None):
    """sum_k w_k o_k over rank-one factors outer[k, i, j] (z last, see
    _ZStage; gathered to the points by the index array at unless it is
    None) with weight planes w0, w1 and w_k = 1 for k >= 2.  Each entry
    i <= j is one plane of the points, the ordered sum
    w_0 o_0 + w_1 o_1 + o_2 + ..., mirrored into (j, i), so the result
    is exactly symmetric; (..., n, n)."""
    n = outer.shape[0]
    out = np.empty(w0.shape + (n, n))
    for i in range(n):
        for j in range(i, n):
            o = outer[:, i, j] if at is None else outer[:, i, j][:, at]
            plane = w0 * o[0] + w1 * o[1]
            for k in range(2, n):
                plane += o[k]
            out[..., i, j] = out[..., j, i] = plane
    return out


def _metric(m, coords, on_grid=False, inverse=True):
    """F, F^-1 (None unless inverse) and det F at the points of coords
    (see ModelMap._coords), from the frame factors F = M^-T diag(d) M^-1.

    Where chi = 0 the frame is A(z), so F and F^-1 are sums over the z
    stage's rank-one factors (_ZStage, _rank_one_sum), which a grid level
    (on_grid) broadcasts along its z axis and a probe batch gathers; no
    per-point frame, inverse or matrix product is formed there.  Where
    chi > 0 the blended frame and its inverse are formed per point and
    F = M^-T diag(d) M^-1, F^-1 = M diag(1/d) M^T stay stacked products:
    as per-point rank-one sums they moved tau on a grid through the blend
    by 2.3e-10 relative.  det F = prod(d) det(M^-1)^2 needs no
    determinant per point."""
    rho, z, stage, at, chi = coords
    e_u, e_v = m._exp_uv(rho, z)
    gather = None if on_grid else at
    F = _rank_one_sum(stage.row_outer, e_u, e_v, gather)
    Finv = _rank_one_sum(stage.col_outer, 1.0 / e_u, 1.0 / e_v, gather) if inverse else None
    det_inv = stage.det_inv[at]
    blend = chi > 0.0
    if blend.any():
        M, Minv, det_inv[blend] = m._blended(stage, at[blend], chi[blend])
        d = _diag(e_u[blend], e_v[blend], m.n)
        F[blend] = _congruence(Minv, d)
        if inverse:
            Finv[blend] = _congruence(np.swapaxes(M, -1, -2), 1.0 / d)
    return F, Finv, e_u * e_v * det_inv**2


def _point_fields(m, points, level=None):
    """Point stage of the tension kernel: F, F^-1, det F and omega at an
    array of points (see _metric); chi and the z stage are found once for
    both F and omega.  A grid level passes its z stage, whose z values
    are the points' last axis (see ModelMap._coords)."""
    coords = m._coords(points, level)
    return _metric(m, coords, on_grid=level is not None) + (m._omega(*coords),)


def _divergence(v_rho, v_z, rho, h):
    """div V = d/drho V_rho + V_rho / rho + d/dz V_z, centered differences.

    v_rho carries one extra row on each side, v_z one extra column.
    """
    return (
        (v_rho[2:] - v_rho[:-2]) / (2.0 * h)
        + v_rho[1:-1] / rho
        + (v_z[:, 2:] - v_z[:, :-2]) / (2.0 * h)
    )


def _omega_span(w):
    """The result columns of a stencil block (see _tension_stencil) whose
    5x5 patches see w change, as the smallest slice that holds them all;
    an empty slice where w is constant over the block.  NaN counts as a
    change."""

    def per_column(changed):  # any() over every axis but the block columns
        return changed.any(axis=0).reshape(changed.shape[1], -1).any(axis=1)

    along_rho = per_column(w[1:] != w[:-1])  # per block column
    along_z = per_column(w[:, 1:] != w[:, :-1])  # per pair of adjacent columns
    # result column j reads block columns j..j+4 and the four pairs among them
    seen = np.flatnonzero(
        np.convolve(along_rho, np.ones(5), "valid") + np.convolve(along_z, np.ones(4), "valid")
    )
    return slice(seen[0], seen[-1] + 1) if seen.size else slice(0, 0)


def _tension_stencil(F, Finv, f, w, rho, h):
    """Stencil stage of the tension kernel: (|tau|, |tau_F part|,
    |tau_omega part|) from the point fields of a block whose first two
    axes are grid rows (rho) and columns (z), spacing h.

    The result covers the block minus a rim of two points; rho holds the
    rho values of the result and broadcasts against its leading axes.
    F and F^-1 arrive exactly symmetric where chi = 0 (see _metric).  The
    flux H = F^-1 dF stays a stacked matrix product: BLAS forms it with
    fused multiply-adds that a sum over entries would not reproduce bit
    for bit, and on plateaus tau is what is left after terms of order 1
    cancel.  Everything after div H runs on one plane of the block per
    entry, which spares numpy's per-call cost on the small trailing axes.

    The omega terms (dw, K = F^-1 dw / det F, div K, K dw^T and
    div K^T F div K) are evaluated only on the span of result columns
    whose patches see w change (_omega_span).  Elsewhere dw = +0, so with
    finite fields K, div K and the omega term are +0 and each K dw^T term
    adds +-0 to div H: A = div H and omega_term = 0 there are what the
    full evaluation gives, and tau does not move by a bit.
    """
    two_h = 2.0 * h
    n = F.shape[-1]
    # fluxes H = F^-1 dF and K = F^-1 dw / det F, only where the divergence
    # reads them: rho-fluxes one row past the result, z-fluxes one column
    Fi_rho = Finv[1:-1, 2:-2]
    Fi_z = Finv[2:-2, 1:-1]
    divH = _divergence(
        Fi_rho @ ((F[2:, 2:-2] - F[:-2, 2:-2]) / two_h),  # H_rho
        Fi_z @ ((F[2:-2, 2:] - F[2:-2, :-2]) / two_h),  # H_z
        rho[..., None, None],
        h,
    )

    # the span [a, b) of result columns is the block columns a + 2 .. b + 1
    span = _omega_span(w)
    a, b = span.start, span.stop
    cols = slice(a + 2, b + 2)
    dw_rho = [(w[2:, cols, ..., j] - w[:-2, cols, ..., j]) / two_h for j in range(n)]
    dw_z = [(w[2:-2, a + 2 : b + 4, ..., j] - w[2:-2, a : b + 2, ..., j]) / two_h for j in range(n)]
    Fi_rho, Fi_z = Fi_rho[:, a:b], Fi_z[:, a : b + 2]
    f_rho, f_z = f[1:-1, cols], f[2:-2, a + 1 : b + 3]
    K_rho = [sum(Fi_rho[..., i, j] * dw_rho[j] for j in range(n)) / f_rho for i in range(n)]
    K_z = [sum(Fi_z[..., i, j] * dw_z[j] for j in range(n)) / f_z for i in range(n)]
    divK = [_divergence(K_rho[i], K_z[i], rho, h) for i in range(n)]

    # G = F^-1 (dw dw^T summed over rho and z) / det F is the sum of the
    # outer products of the central fluxes K with dw
    A = np.moveaxis(divH, (-2, -1), (0, 1)).copy()  # one contiguous plane per entry
    for i in range(n):
        for j in range(n):
            A[i, j][:, span] += K_rho[i][1:-1] * dw_rho[j][1:-1]
            A[i, j][:, span] += K_z[i][:, 1:-1] * dw_z[j][:, 1:-1]
    trA = sum(A[i, i] for i in range(n))
    trA2 = np.clip(sum(A[i, j] * A[j, i] for i in range(n) for j in range(n)), 0.0, None)
    F_in = F[2:-2, cols]
    F_divK = [sum(F_in[..., i, j] * divK[j] for j in range(n)) for i in range(n)]
    omega_term = np.zeros(trA.shape)
    omega_term[:, span] = 0.5 * f[2:-2, cols] * sum(divK[i] * F_divK[i] for i in range(n))
    tau_f2 = 0.25 * trA**2 + 0.25 * trA2
    tau_f = np.sqrt(tau_f2)
    tau_w = np.sqrt(np.clip(omega_term, 0.0, None))
    tau = np.sqrt(np.clip(tau_f2 + omega_term, 0.0, None))
    return tau, tau_f, tau_w


def _tension_at(m, points, h):
    """(|tau|, |tau_F part|, |tau_omega part|) arrays at an (N, 2) array of
    points, each from the 5x5 patch of spacing h centered on it."""
    pts = np.asarray(points, dtype=float)
    # the axis set lies on rho = 0, so clearing the half-plane boundary by
    # the stencil reach 2h also clears the axis set by at least 2h
    if np.any(pts[:, 0] - 2.0 * h <= 0.0):
        raise ValueError("stencil leaves the half plane; reduce h or move the point")
    offsets = np.arange(-2, 3) * h
    patches = np.empty((5, 5) + pts.shape)
    patches[..., 0] = pts[:, 0] + offsets[:, None, None]
    patches[..., 1] = pts[:, 1] + offsets[None, :, None]
    parts = _tension_stencil(*_point_fields(m, patches), pts[:, 0], h)
    return tuple(part[0, 0] for part in parts)


def tension_norm(m, rho, z, h):
    """|tau| at one point by centered finite differences with spacing h.

    The stencil reaches 2h; the point must keep distance > 2h from the
    axis set and the half-plane boundary.
    """
    return float(_tension_at(m, [(rho, z)], h)[0][0])


def _grid_axes(h, rho_max, z_lo, z_hi):
    rho = (np.arange(int(round(rho_max / h))) + 1.0) * h
    return rho, z_lo + np.arange(int(round((z_hi - z_lo) / h)) + 1) * h


def _tension_strips(m, h, rho_max, z_lo, z_hi, excision):
    """The tension kernel on tension_field's grid, STRIP_ROWS result rows
    at a time: yields (rows, rho, z, dist, mask, (tau, tau_f, tau_omega))
    per strip, with the slice of result rows, the distance to the axis
    set, mask = dist > excision and the parts NaN outside the mask.  Each
    strip carries its last four rows of point fields into the next, so F
    is computed once per grid point, and the frame curve's z stage once
    per call."""
    rho, z = _grid_axes(h, rho_max, z_lo, z_hi)
    rows = len(rho[2:-2])
    level = m._z_stage(z)
    fields = None
    for a in range(0, rows, STRIP_ROWS):
        b = min(a + STRIP_ROWS, rows)
        # result rows a..b-1 read grid rows a..b+3; rows a..a+3 are carried
        first = a if fields is None else a + 4
        R, Z = np.meshgrid(rho[first : b + 4], z, indexing="ij")
        new = _point_fields(m, np.stack([R, Z], axis=-1), level)
        if fields is not None:
            new = tuple(np.concatenate([old[-4:], part]) for old, part in zip(fields, new))
        fields = new
        R, Z = np.meshgrid(rho[a + 2 : b + 2], z[2:-2], indexing="ij")
        dist = m.distance_to_axis(np.stack([R, Z], axis=-1))
        keep = dist > excision
        parts = _tension_stencil(*fields, rho[a + 2 : b + 2, None], h)
        yield slice(a, b), R, Z, dist, keep, tuple(np.where(keep, t, np.nan) for t in parts)


def tension_field(m, h, rho_max, z_lo, z_hi, excision=None):
    """|tau| on a uniform grid, with points within the excision radius
    (default 3h) of the axis set excised.

    Returns (rho_grid, z_grid, tau, tau_f, tau_omega, mask); tau is NaN
    outside the mask.  The grid starts at rho = h, and tau lives on the
    interior points rho >= 3h.  Besides the returned arrays the memory in
    use is one strip's (see _tension_strips).
    """
    if excision is None:
        excision = 3.0 * h
    rho, z = _grid_axes(h, rho_max, z_lo, z_hi)
    R_t, Z_t = np.meshgrid(rho[2:-2], z[2:-2], indexing="ij")
    taus = tuple(np.empty(R_t.shape) for _ in range(3))
    mask = np.empty(R_t.shape, dtype=bool)
    for rows, _, _, _, keep, parts in _tension_strips(m, h, rho_max, z_lo, z_hi, excision):
        mask[rows] = keep
        for out, part in zip(taus, parts):
            out[rows] = part
    return (R_t, Z_t) + taus + (mask,)


# ----------------------------------------------------------------------
# the verifier


# verdict thresholds
RAY_MARGIN = 0.25  # radians kept inside the omega wedge
SUP_CLEARANCE = 0.75  # axis clearance of the sup-stability compacts
SLOPE_LIMIT = -2.3
SUP_RATIO_LIMIT = 1.1
NOISE_FLOOR = 1e-11


_CSV_ROW = "%.9g,%.9g,%.12g,%.12g,%.12g\n"  # rho, z, tau, tau_f, tau_omega


@dataclass
class TensionReport:
    h: float
    excision_radius: float
    domain: dict
    annuli: list
    decay: dict
    convergence: dict
    sup_bounded_pass: bool
    decay_pass: bool
    passed: bool
    model: ModelMap = field(repr=False, compare=False, default=None)

    def to_json_dict(self):
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "model"}

    def dump_csv(self, path):
        """Write the spacing-h field outside the excision radius, strip by strip."""
        d = self.domain
        strips = _tension_strips(
            self.model, self.h, d["rho_max"], d["z_lo"], d["z_hi"], self.excision_radius
        )
        with open(path, "w") as fh:
            fh.write("rho,z,tau,tau_f,tau_omega\n")
            for _, rho, z, _, _, parts in strips:
                keep = ~np.isnan(parts[0])
                columns = [a[keep].tolist() for a in (rho, z, *parts)]
                fh.writelines(map(_CSV_ROW.__mod__, zip(*columns)))


def _finite_extent(m):
    finite = [z for seg in m.axis_segments for z in seg if math.isfinite(z)]
    for i in m.diagram.horizon_indices():
        finite.extend(m.diagram.rods[i].z)
    lo, hi = min(finite), max(finite)
    return lo, hi


def verify_tension(
    m: ModelMap, h=0.05, rays=7, decade_points=24, excision_factor=3.0
) -> TensionReport:
    """Numerical verification of boundedness and decay of the tension.

    Reports the sup of |tau| on compact annuli at spacing h and h/2 (the
    ratio must stay below SUP_RATIO_LIMIT), a log-log decay fit along
    far-field rays over one decade (slope at most SLOPE_LIMIT, unless the
    far tension sits below NOISE_FLOOR), and the residual convergence
    order at fixed probe points.  ``rays`` far-field rays carry
    ``decade_points`` samples each, and points within
    ``excision_factor * h`` of the axis set are excised.
    """
    _check_spec(m, h, rays, decade_points, excision_factor)
    lo, hi = _finite_extent(m)
    width = max(hi - lo, 1.0)

    # cover all frame transitions (they reach 1.6 widths past the poles)
    rho_max = width + 2.0
    z_lo = lo - 1.8 * width
    z_hi = hi + 1.8 * width
    excision = excision_factor * h

    annuli_bounds = [
        (0.0, 0.75 * width),
        (0.75 * width, 1.5 * width),
        (1.5 * width, 1.8 * width + rho_max),
    ]
    # sup stability is judged on compact sets: fixed axis clearance, so
    # the finite-difference noise of the log-singular entries (which grows
    # near the excision edge as h shrinks) stays out of the comparison;
    # the h/2 field is only compared there, so its mask is that compact
    clearance = max(SUP_CLEARANCE, excision)
    grid = (rho_max, z_lo, z_hi)
    (sups_ex, sups1), kept = _annulus_sups(m, h, grid, annuli_bounds, (excision, clearance))
    if not kept:
        raise ModelMapError(
            f"the grid at h = {h} has no interior point outside the "
            f"excision radius {excision}"
        )
    (sups2,), _ = _annulus_sups(m, h / 2.0, grid, annuli_bounds, (clearance,))
    annuli = []
    for (r_lo, r_hi), sup_ex, sup1, sup2 in zip(annuli_bounds, sups_ex, sups1, sups2):
        if sup1 < NOISE_FLOOR and sup2 < NOISE_FLOOR:
            ratio = 1.0
        else:
            ratio = max(sup1, sup2) / max(min(sup1, sup2), NOISE_FLOOR)
        ok = ratio < SUP_RATIO_LIMIT or max(sup1, sup2) < NOISE_FLOOR
        annuli.append(
            {
                "r_lo": r_lo,
                "r_hi": r_hi,
                "sup_excision": sup_ex,
                "sup_coarse": sup1,
                "sup_fine": sup2,
                "ratio": ratio,
                "pass": ok,
            }
        )
    sup_ok = all(a["pass"] for a in annuli)

    radii, angles, ray_points = _decay_rays(m, rays, decade_points)
    probes = _convergence_probes(m, h, lo, hi, width)
    tau_h = _tension_at(m, ray_points + probes, h)[0]
    decay = _decay_fit(radii, angles, tau_h[: len(ray_points)])
    convergence = _convergence(m, h, probes, tau_h[len(ray_points) :])

    decay_pass = bool(decay["pass"])
    passed = sup_ok and decay_pass
    return TensionReport(
        h=h,
        excision_radius=excision,
        domain={"rho_max": rho_max, "z_lo": z_lo, "z_hi": z_hi},
        annuli=annuli,
        decay=decay,
        convergence=convergence,
        sup_bounded_pass=sup_ok,
        decay_pass=decay_pass,
        passed=passed,
        model=m,
    )


def _annulus_sups(m, h, grid, bounds, clearances):
    """Per clearance and annulus (radii about the far-field center), the
    sup of |tau| at spacing h over the grid points farther than that
    clearance from the axis set, 0.0 if there are none; and whether the
    grid has any point outside the first (smallest) clearance, which is
    the field's excision radius.  The field is reduced strip by strip."""
    tops = [[[] for _ in bounds] for _ in clearances]
    kept = False
    for _, rho, z, dist, keep, (tau, _, _) in _tension_strips(m, h, *grid, clearances[0]):
        kept = kept or bool(keep.any())
        radius = np.hypot(rho, z - m.z0)
        for j, (r_lo, r_hi) in enumerate(bounds):
            ring = (radius >= r_lo) & (radius < r_hi)
            for i, c in enumerate(clearances):
                values = tau[ring & (dist > c)]
                if values.size:
                    tops[i][j].append(np.fmax.reduce(values))  # skips NaN, like nanmax
    # max is exact and order-free, so the sup of the strip sups is the sup
    return [[float(np.nanmax(t)) if t else 0.0 for t in row] for row in tops], kept


def _check_spec(m, h, rays, decade_points, excision_factor):
    """Reject settings under which the verifier would judge empty data."""
    if not (math.isfinite(h) and h > 0.0):
        raise ModelMapError(f"grid spacing h = {h} must be finite and > 0")
    if not (math.isfinite(excision_factor) and excision_factor >= 0.0):
        raise ModelMapError(f"excision_factor = {excision_factor} must be finite and >= 0")
    if rays < 1:
        raise ModelMapError(f"rays = {rays} must be at least 1")
    if decade_points < 2:
        raise ModelMapError(f"decade_points = {decade_points} must be at least 2")
    if m.epsilon + RAY_MARGIN >= 0.5 * math.pi:
        raise ModelMapError(
            f"epsilon + ray_margin = {m.epsilon + RAY_MARGIN} leaves no "
            "decay rays inside the omega wedge (must be < pi/2)"
        )


def _decay_rays(m, rays, decade_points):
    """Radii, angles and (rho, z) points of the far-field decay rays; the
    points run ray by ray, outwards along each ray."""
    r_start = 1.5 * m.blend_radii[1]
    radii = r_start * np.power(10.0, np.linspace(0.0, 1.0, decade_points))
    theta_lo = m.epsilon + RAY_MARGIN
    theta_hi = math.pi - m.epsilon - RAY_MARGIN
    angles = np.linspace(theta_lo, theta_hi, rays)
    points = [
        (r * math.sin(theta), m.z0 + r * math.cos(theta)) for theta in angles for r in radii
    ]
    return radii, angles, points


def _decay_fit(radii, angles, taus):
    """Log-log decay fit of |tau| along each ray; taus as from the points
    of _decay_rays."""
    slopes = []
    max_tau = 0.0
    per_ray = []
    for theta, ray_taus in zip(angles, np.reshape(taus, (len(angles), len(radii)))):
        max_tau = max(max_tau, float(ray_taus.max()))
        if np.all(ray_taus > 0):
            slope = float(np.polyfit(np.log(radii), np.log(ray_taus), 1)[0])
            slopes.append(slope)
            per_ray.append({"theta": float(theta), "slope": slope})
        else:
            per_ray.append({"theta": float(theta), "slope": None})
    below_noise = max_tau < NOISE_FLOOR
    if below_noise:
        ok = True
        mean = None
        band = None
    elif slopes:
        mean = float(np.mean(slopes))
        band = float(np.std(slopes))
        ok = mean <= SLOPE_LIMIT
    else:
        mean, band, ok = None, None, False
    return {
        "r_range": [float(radii[0]), float(radii[-1])],
        "rays": per_ray,
        "mean_slope": mean,
        "slope_band": band,
        "max_tau": max_tau,
        "below_noise_floor": below_noise,
        "slope_limit": SLOPE_LIMIT,
        "pass": ok,
    }


def _convergence_probes(m, h, lo, hi, width):
    """Fixed probe points for the convergence order, skipping any whose
    stencil at spacing h would leave the half plane."""
    probes = []
    for i in m.diagram.horizon_indices():
        z_lo, z_hi = m.diagram.rods[i].z
        probes.append((0.7 * (z_hi - z_lo) + 0.3, 0.5 * (z_lo + z_hi)))
    probes.append((0.5 * width + 0.5, 0.5 * (lo + hi)))
    return [(rho, z) for rho, z in probes if rho - 2.0 * h > 0.0]


def _convergence(m, h, probes, vals_h):
    """Residual convergence order at the probes, from |tau| at spacing h
    (given) and h/2."""
    if not probes:
        return {"points": [], "order": None}
    vals_h2 = _tension_at(m, probes, h / 2.0)[0]
    sup_h = float(vals_h.max())
    sup_h2 = float(vals_h2.max())
    order = None
    if sup_h2 > 0 and sup_h > 0:
        order = float(math.log2(sup_h / sup_h2))
    return {
        "points": [list(p) for p in probes],
        "sup_coarse": sup_h,
        "sup_fine": sup_h2,
        "order": order,
    }


class TransformedMap:
    """Push a model map through F -> h F h^T, omega -> h omega.

    For |det h| = 1 the tension norm is pointwise invariant; the wrapper
    exposes the same evaluation surface the tension routines use.  The
    frames transform as M -> h^-T M, the far frame too, so the rows a_k of
    M^-1 go to h a_k, the columns m_k of M to h^-T m_k, and F keeps its
    factor form.
    """

    def __init__(self, base, h_matrix):
        self.base = base
        self.n = base.n
        self.h_matrix = np.asarray(h_matrix, dtype=float)
        self._h_inv_t = np.linalg.inv(self.h_matrix).T
        self.far_frame = self._h_inv_t @ base.far_frame
        self.omega_profile = base.omega_profile  # h is applied in _omega

    def axis_frames(self, z):
        return self._h_inv_t @ self.base.axis_frames(z)

    def _blend_weight(self, rho, z):
        return self.base._blend_weight(rho, z)

    def _exp_uv(self, rho, z):
        return self.base._exp_uv(rho, z)

    def _omega(self, *coords):
        return np.einsum("ij,...j->...i", self.h_matrix, self.base._omega(*coords))

    _z_stage, _coords, _blended = ModelMap._z_stage, ModelMap._coords, ModelMap._blended
    frame_factors, F, omega = ModelMap.frame_factors, ModelMap.F, ModelMap.omega

    def distance_to_axis(self, points):
        return self.base.distance_to_axis(points)
