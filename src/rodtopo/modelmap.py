"""Float evaluation of model maps on the (rho, z) half plane (one point
stage, _point_fields, turns the records of rodtopo.modelbuild into F,
F^-1, det F and omega), and the tension verifier.

Wherever M is constant and omega is constant the map is exactly
harmonic; the leftover tension lives in the frame transitions and in the
angular twist-potential interpolation at infinity.  Its decay exponent
there is not derived yet; the verifier fits the slope of log |tau|
against log r along far rays and checks only that against SLOPE_LIMIT.
"""

from __future__ import annotations

import math
import numbers
from functools import reduce
from operator import mul
from typing import NamedTuple

import numpy as np

from .errors import ModelMapError
from .modelbuild import ModelMap, _finite_extent
from .modelbuild import build_model_map as build_model_map


# ----------------------------------------------------------------------
# harmonic potentials


def potentials(a, rho, z):
    """The two harmonic functions u_a = log(r_a - (z - a)) and
    v_a = log(r_a + (z - a)) attached to the axis point z = a.

    On the axis above a the first is -inf (e^u = 0); below, the second.
    They are defined at finite points of the closed half plane rho >= 0,
    except at the point (0, a) itself, for a finite a.
    """
    rho, z, a = float(rho), float(z), float(a)
    if not (rho >= 0.0 and math.isfinite(rho) and math.isfinite(z)):
        raise ValueError(f"({rho}, {z}) is not a finite point of the half plane rho >= 0")
    if not math.isfinite(a):
        raise ValueError(f"axis point a = {a} is not finite")
    if rho == 0.0 and z == a:
        raise ValueError("potentials are singular at the axis point itself")
    rho, z = np.asarray(rho), np.asarray(z)
    log_rho2 = _log_rho2(rho)
    dz, L = _endpoint_log(a, rho, z)
    return _u_from(dz, L, log_rho2).item(), _v_from(dz, L, log_rho2).item()


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


def _smoothstep(t):
    """C^2 quintic smoothstep on [0, 1]."""
    t = np.clip(t, 0.0, 1.0)
    return t * t * t * (t * (6.0 * t - 15.0) + 10.0)


def _profile_at(pieces, z):
    """A piecewise z-profile at the z values (array); each piece serves the
    z in its half-open [z_lo, z_hi), M0 on a plateau and M0 + s (M1 - M0)
    on a ramp, s the smoothstep across its window; NaN elsewhere."""
    out = np.full(z.shape + np.shape(pieces[0].M0), np.nan)
    for piece in pieces:
        hit = (z >= piece.z_lo) & (z < piece.z_hi)
        M0, M1 = np.asarray(piece.M0, dtype=float), np.asarray(piece.M1, dtype=float)
        if piece.constant:
            out[hit] = M0
        elif hit.any():
            s = _smoothstep((z[hit] - piece.z_lo) / (piece.z_hi - piece.z_lo))
            out[hit] = M0 + s.reshape(s.shape + (1,) * M0.ndim) * (M1 - M0)
    return out


# ----------------------------------------------------------------------
# the model map


class _ZStage(NamedTuple):
    """The z-only factors of the map at sorted distinct z values: the
    near-field twist potentials omega(z), the frames A(z) and 1/det A,
    and the rank-one factors of F and F^-1 where the radial
    blend leaves the frame at A(z),

        F = sum_k d_k a_k a_k^T,    F^-1 = sum_k m_k m_k^T / d_k,

    over the rows a_k of A^-1 and the columns m_k of A:
    row_outer[k, i, j] = a_k[i] a_k[j] and col_outer[k, i, j] =
    m_k[i] m_k[j], stored (k, i, j, z) so that every entry is a
    contiguous z row."""

    z: np.ndarray
    omega: np.ndarray
    A: np.ndarray
    det_inv: np.ndarray
    row_outer: np.ndarray
    col_outer: np.ndarray


def _slot_potentials(m, rho, z):
    """U_k at the points given by broadcasting rho and z, for each slot
    k, None for a slot without terms, with one logarithm per distinct
    rod endpoint (_endpoint_log) shared by every term that uses it.
    2 log rho is taken once per entry of rho and z - a once per entry
    of z, so a grid passes a column of rho and a row of z."""
    shape = np.broadcast_shapes(rho.shape, z.shape)
    log_rho2 = _log_rho2(rho)
    ends = {a for terms in m.terms for term in terms for a in term[1:]}
    logs = {a: _endpoint_log(a, rho, z) for a in ends}
    planes = []
    for terms in m.terms:
        acc = np.zeros(shape) if terms else None
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
                    zn = np.broadcast_to(z, shape)[north]
                    ua[north] = np.log((zn - b) / (zn - a))
                    ub[north] = 0.0
                acc += ua - ub
        planes.append(acc)
    return planes


def _blend_weight(m, rho, z):
    """Radial blend weight chi at the points given by broadcasting rho
    and z: 0 within R1 of the far-field center, 1 beyond R2.  A batch
    whose farthest point, bounded from its largest |rho| and |z - z0|,
    lies inside R1 by more than hypot's rounding gets zeros without a
    per-point evaluation."""
    R1, R2 = m.blend_radii
    dz = z - m.z0
    reach = np.hypot(np.max(np.abs(rho), initial=0.0), np.max(np.abs(dz), initial=0.0))
    if reach < R1 * (1.0 - 1e-12):
        return np.zeros(np.broadcast_shapes(rho.shape, dz.shape))
    return _smoothstep((np.hypot(rho, dz) - R1) / (R2 - R1))


def _z_stage(m, z_axis):
    """The map's z-only factors at sorted distinct z values (a _ZStage):
    the near-field omega profile, one inverse and one determinant of the
    frame curve per z, and the rank-one factors that give F and F^-1
    wherever chi = 0; once per strip pass, or per probe batch."""
    A = _profile_at(m.segments, z_axis)
    rows = np.moveaxis(np.linalg.inv(A), 0, -1)  # rows[k, i] = a_k[i], z last
    cols = np.moveaxis(A, 0, -1).swapaxes(0, 1)  # cols[k, i] = m_k[i]
    return _ZStage(
        z_axis, _profile_at(m.omega_profile, z_axis),
        A, 1.0 / np.linalg.det(A),
        rows[:, :, None] * rows[:, None], cols[:, :, None] * cols[:, None],
    )


def _omega(m, rho, z, level, at, chi, out):
    """omega at the points of _point_fields, whose index at into the z
    stage broadcasts against chi, written into out.  Far out, omega runs
    from the north end plateau's value to the south one's."""
    out[...] = level.omega[at]  # the near field, broadcast to the points
    blend = chi > 0.0
    if blend.any():
        ends = m.omega_profile[-1].M0, m.omega_profile[0].M0
        c_north, c_south = (np.asarray(c, dtype=float) for c in ends)
        rho, z = (np.broadcast_to(x, chi.shape)[blend] for x in (rho, z))
        theta = np.arctan2(rho, z - m.z0)  # 0 at the north axis
        span = math.pi - 2.0 * EPSILON
        s_theta = _smoothstep((theta - EPSILON) / span)
        far = c_north + s_theta[:, None] * (c_south - c_north)
        c = chi[blend][:, None]
        out[blend] = (1.0 - c) * out[blend] + c * far
    return out


def _axis_distance(m, rho, z):
    """Distance to the axis set at the points given by broadcasting rho
    and z; the z-gap to the axis rods is taken once per entry of z."""
    # hypot is monotone in |dz|, so the hypot of the least z-gap is the
    # least hypot over the segments, bit for bit
    gap = np.full(z.shape, np.inf)
    for i in m.diagram.axis_indices():
        z_lo, z_hi = m.diagram.rods[i].z
        np.minimum(gap, np.maximum(np.maximum(z_lo - z, z - z_hi), 0.0), out=gap)
    return np.hypot(rho, gap)


# ----------------------------------------------------------------------
# tension


STRIP_ROWS = 16  # rho rows of tension_field's output computed per strip
SPACING_RTOL = 1e-6  # relative error allowed in a stencil or grid spacing


def _spaced_by(x, h, axis):
    """True iff the values of x along axis step by h, each step to within
    SPACING_RTOL * h.  Far from 0, h may be too fine for the doubles
    there: adjacent coordinates then coincide or round unevenly, and the
    centered differences, which divide by 2h, would be silently wrong."""
    return bool(np.all(np.abs(np.diff(x, axis=axis) - h) <= SPACING_RTOL * h))


def _congruence(X, d):
    """X^T diag(d) X over stacks of matrices."""
    return np.swapaxes(X, -1, -2) @ (d[..., None] * X)


def _rank_one_sum(outer, weights, out, at):
    """sum_k w_k o_k over rank-one factors outer[k, i, j] (z last, see
    _ZStage; gathered to the points by the index array at) with one
    weight plane of the points per slot, or None for w_k = 1, written
    into out, whose leading axes are the points'.  Each
    entry i <= j is one plane of the points, the ordered sum
    w_0 o_0 + w_1 o_1 + ..., in which a factor of weight 1 is added as it
    is, mirrored into (j, i), so the result is exactly symmetric."""
    n = outer.shape[0]
    for i in range(n):
        for j in range(i, n):
            o = outer[:, i, j][:, at]
            plane = np.empty(out.shape[:-2])
            if weights[0] is None:
                plane[...] = o[0]
            else:
                np.multiply(weights[0], o[0], out=plane)
            for w, o_k in zip(weights[1:], o[1:]):
                plane += o_k if w is None else w * o_k
            out[..., i, j] = plane
            if i != j:
                out[..., j, i] = plane
    return out


def _empty_fields(shape, n):
    """Uninitialized arrays for the point fields (F, F^-1, det F, omega)
    of rank n at points of the given shape.  F and F^-1 share one block,
    a strip's largest: glibc's malloc raises its trim threshold to twice
    the largest mapped block it frees, and at that size the heap that the
    stencil's temporaries free is kept rather than returned to the system
    and faulted in again on the next strip."""
    F_Finv = np.empty((2,) + shape + (n, n))
    return F_Finv[0], F_Finv[1], np.empty(shape), np.empty(shape + (n,))


def _point_fields(m, rho, z, level=None, out=None):
    """The point stage: F, F^-1, det F and omega at the (rho, z) points
    given by broadcasting the arrays rho and z against each other,
    written into out (a tuple as from _empty_fields) if it is given, from
    the frame factors F = M^-T diag(d) M^-1, d_k = e^(U_k), of the frame
    M = A(z) + chi (far - A(z)) blended toward the far frame.  chi and
    the z stage (_z_stage) serve F and omega both, read through one index
    array into the z stage.  A grid level passes a column of rho, a row
    of z and its z stage, whose z values are that row, and indexes it in
    order; otherwise the distinct z of the points are found here.

    What depends on one coordinate is taken once per entry of its array:
    2 log rho per rho, z - a and |z - a| per rod endpoint a and z, the
    z-gap to the axis rods per z (_axis_distance), the z stage's omega
    and 1/det A gathered per z, and the bound by which a batch inside R1
    skips the blend weight (_blend_weight).  Only the hypots, the
    logarithms, U, d, F and F^-1 are formed per point, and omega and
    det F filled in from them.

    Where chi = 0 the frame is A(z), so F and F^-1 are sums over the z
    stage's rank-one factors (_ZStage, _rank_one_sum), gathered to the
    points' z; no per-point frame, inverse or matrix product is formed
    there.  Where chi > 0 the
    blended frame and its inverse are formed per point and
    F = M^-T diag(d) M^-1, F^-1 = M diag(1/d) M^T stay stacked products:
    as per-point rank-one sums they moved tau on a grid through the blend
    by 2.3e-10 relative.  det F = prod(d) det(M^-1)^2 needs no
    determinant per point.  A slot without terms has d_k = 1, and no
    exponential, weight or factor of the product is formed for it."""
    shape = np.broadcast_shapes(rho.shape, z.shape)
    F, Finv, f, omega = out or _empty_fields(shape, m.diagram.n)
    if level is None:
        z_axis, at = np.unique(z, return_inverse=True)
        level, at = _z_stage(m, z_axis), at.reshape(z.shape)
    else:
        at = np.arange(level.z.size)  # a grid level's z is the points' last axis
    chi = _blend_weight(m, rho, z)
    _omega(m, rho, z, level, at, chi, omega)
    d = [None if U is None else np.exp(U) for U in _slot_potentials(m, rho, z)]
    _rank_one_sum(level.row_outer, d, F, at)
    d_inv = [None if w is None else 1.0 / w for w in d]
    _rank_one_sum(level.col_outer, d_inv, Finv, at)
    det_inv = level.det_inv[at]
    blend = chi > 0.0
    if blend.any():
        A = level.A[np.broadcast_to(at, shape)[blend]]
        M = A + chi[blend][:, None, None] * (np.asarray(m.far_frame, dtype=float) - A)
        det_inv = np.broadcast_to(det_inv, shape).copy()
        det_inv[blend] = 1.0 / np.linalg.det(M)
        diag = np.stack([np.ones(len(M)) if w is None else w[blend] for w in d], axis=-1)
        F[blend] = _congruence(np.linalg.inv(M), diag)
        Finv[blend] = _congruence(np.swapaxes(M, -1, -2), 1.0 / diag)
    np.multiply(reduce(mul, [w for w in d if w is not None]), det_inv**2, out=f)
    return F, Finv, f, omega


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
    F and F^-1 arrive exactly symmetric where chi = 0 (_point_fields).  The
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
    if not np.all(np.isfinite(pts)):
        raise ValueError("stencil needs a finite point")
    if not np.all(pts[:, 0] >= 0.0):
        raise ValueError("stencil needs a point of the half plane rho >= 0")
    # the axis set lies on rho = 0, so clearing the half-plane boundary by
    # the stencil reach 2h also clears the axis set by at least 2h
    if not np.all(pts[:, 0] - 2.0 * h > 0.0):
        raise ValueError("stencil leaves the half plane; reduce h or move the point")
    offsets = np.arange(-2, 3) * h
    rho = pts[:, 0] + offsets[:, None, None]  # the patches' rows, (5, 1, N)
    z = pts[:, 1] + offsets[None, :, None]  # their columns, (1, 5, N)
    if not (_spaced_by(rho, h, 0) and _spaced_by(z, h, 1)):
        raise ValueError(
            f"stencil points are not spaced evenly: h = {h} is too fine for the float resolution there"
        )
    parts = _tension_stencil(*_point_fields(m, rho, z), pts[:, 0], h)
    return tuple(part[0, 0] for part in parts)


def tension_norm(m, rho, z, h):
    """|tau| at one point by centered finite differences with spacing h.

    The stencil reaches 2h; the point must keep distance > 2h from the
    axis set and the half-plane boundary.
    """
    _check_spacing(h)
    return float(_tension_at(m, [(rho, z)], h)[0][0])


def _grid_axes(h, rho_max, z_lo, z_hi):
    """The rho and z axes of tension_field's grid.  Their lengths are
    counted in Python integers first, so a spacing too small for an array
    to hold the grid raises ModelMapError before anything is allocated.
    Bounds so far from 0 that the z values do not step by h (see
    _spaced_by) raise it too."""
    spans = rho_max / h, (z_hi - z_lo) / h
    if all(math.isfinite(s) for s in spans):
        rows, cols = int(round(spans[0])), int(round(spans[1])) + 1
        if max(rows, 0) * max(cols, 0) <= np.iinfo(np.intp).max:
            z = z_lo + np.arange(cols) * h
            if not _spaced_by(z, h, 0):
                raise ModelMapError(
                    f"grid bounds z_lo = {z_lo}, z_hi = {z_hi} space adjacent grid points "
                    f"unevenly: h = {h} is too fine for the float resolution there"
                )
            return (np.arange(rows) + 1.0) * h, z
    raise ModelMapError(f"grid spacing h = {h} gives more grid points than an array can hold")


class _Level:
    """One grid level of a strip pass (_tension_strips): spacing h, the
    axes rho and z that its point fields are filled on, the rows and
    columns of its own grid (_grid_axes) that its stencil reads, the
    excision radius, and its strip, the point fields of the grid rows
    start..stop-1."""

    def __init__(self, m, h, grid, excision):
        self.m, self.h, self.excision = m, h, excision
        self.rho, self.z = _grid_axes(h, *grid)
        self.rows, self.cols = self.rho.size, self.z.size
        self.start = self.stop = 0
        self.fields = None

    def extend(self, count):
        """Move on to a fresh strip: the last four rows of the strip before
        (all of them if it has fewer) in its head, then count new grid
        rows, whose arrays are returned to be filled."""
        head = 0 if self.fields is None else min(len(self.fields[0]), 4)
        fields = _empty_fields((head + count, self.z.size), self.m.diagram.n)
        for new, old in zip(fields, self.fields or ()):
            new[:head] = old[len(old) - head :]
        self.fields, self.start, self.stop = fields, self.stop - head, self.stop + count
        return tuple(f[head:] for f in fields)

    def take(self, block, p0):
        """Copy this level's grid rows among the pass rows p0, p0 + 1, ...
        of block, from a pass over the grid of half its spacing, into a
        fresh strip and return the strip's result; None if block holds no
        row of this level.  Grid row i is pass row 2i + 1, and grid column
        j pass column 2j."""
        i0, i1 = self.stop, min((p0 + len(block[0])) // 2, self.rows)
        if i1 <= i0:
            return None
        rows, cols = slice(2 * i0 + 1 - p0, 2 * i1 - p0, 2), slice(0, 2 * self.cols - 1, 2)
        for dst, src in zip(self.extend(i1 - i0), block):
            dst[...] = src[rows, cols]
        return self.result()

    def result(self):
        """The strip's stencil on its own grid's rows and columns, as
        _tension_strips yields it; None while the strip holds fewer than
        the five rows of one result row."""
        a, b, m = self.start, min(self.stop, self.rows) - 4, self.m  # result rows a..b-1
        if b <= a:
            return None
        R, Z = self.rho[a + 2 : b + 2, None], self.z[None, 2 : self.cols - 2]
        dist = _axis_distance(m, R, Z)
        keep = dist > self.excision
        block = (f[: b + 4 - a, : self.cols] for f in self.fields)
        parts = _tension_stencil(*block, R, self.h)
        parts = tuple(np.where(keep, t, np.nan) for t in parts)
        return self.h, slice(a, b), R, Z, dist, keep, parts


def _tension_strips(m, h, grid, excision, fine_excision=None):
    """The tension kernel on tension_field's grid of spacing h over
    grid = (rho_max, z_lo, z_hi), strip by strip: yields (h, rows, rho,
    z, dist, mask, (tau, tau_f, tau_omega)) per strip, with the slice of
    result rows, the strip's rho as a column and z as a row (they
    broadcast to the strip), the distance to the axis set,
    mask = dist > excision and the parts NaN outside the mask.  Given a
    fine_excision, the same pass also yields the strips of the h/2 grid,
    whose first item is h/2 and whose mask is dist > fine_excision.

    The pass runs the z stage once and the point stage once per row of
    its grid (the h/2 grid if there is one), STRIP_ROWS result rows at a
    time, writing into fresh strips that carry four rows over
    (_Level.extend).  The grid's axes go in, not a mesh of points, so
    what depends on rho or z alone runs once per row or column
    (_point_fields).  The h grid's points are, bit for bit, the h/2
    grid's odd rows and even columns, so the h level copies its point
    fields from each new block of the pass (_Level.take) and evaluates
    none itself.  _grid_axes rounds, so the h grid's last row or column
    may lie one h/2 step past the h/2 grid: the pass covers that step
    too, and the h/2 stencil does not read it."""
    coarse = driver = _Level(m, h, grid, excision)  # the pass runs over the driver's grid
    if fine_excision is not None:
        driver = _Level(m, h / 2.0, grid, fine_excision)
        if 2 * coarse.rows > driver.rows:
            driver.rho = np.append(driver.rho, coarse.rho[-1])
        if 2 * coarse.cols - 1 > driver.cols:
            driver.z = np.append(driver.z, coarse.z[-1])
    stage = _z_stage(m, driver.z)
    while driver.stop < driver.rho.size:
        p0 = driver.stop
        count = STRIP_ROWS + (0 if driver.fields else 4)  # four rows come from the strip before
        new = driver.extend(min(count, driver.rho.size - p0))
        _point_fields(m, driver.rho[p0 : driver.stop, None], driver.z[None, :], stage, new)
        strip = driver.result()
        if strip is not None:
            yield strip
        strip = None if driver is coarse else coarse.take(new, p0)
        if strip is not None:
            yield strip


def tension_field(m, h, rho_max, z_lo, z_hi, excision=None):
    """|tau| on a uniform grid, with points within the excision radius
    (default EXCISION_FACTOR * h) of the axis set excised.

    Returns (rho_grid, z_grid, tau, tau_f, tau_omega, mask); tau is NaN
    outside the mask.  The grid starts at rho = h, and tau lives on the
    interior points rho >= 3h.  Bounds that are not finite, that leave
    no interior point or whose grid points do not step by h, and an excision
    radius that is not a finite number >= 0, raise ModelMapError.  Besides
    the returned arrays the memory in use is one strip's (see
    _tension_strips).
    """
    _check_spacing(h)
    for name, bound in (("rho_max", rho_max), ("z_lo", z_lo), ("z_hi", z_hi)):
        if not math.isfinite(bound):
            raise ModelMapError(f"grid bound {name} = {bound} must be finite")
    rho, z = _grid_axes(h, rho_max, z_lo, z_hi)
    for axis, bounds in ((rho, f"rho_max = {rho_max}"), (z, f"z_lo = {z_lo}, z_hi = {z_hi}")):
        if axis.size < 5:
            raise ModelMapError(f"grid bounds {bounds} leave no interior point at h = {h}")
    if excision is None:
        excision = EXCISION_FACTOR * h
    elif not (isinstance(excision, numbers.Real) and math.isfinite(excision) and excision >= 0.0):
        raise ModelMapError(f"excision radius excision = {excision} must be a finite number >= 0")
    R_t, Z_t = np.meshgrid(rho[2:-2], z[2:-2], indexing="ij")
    taus = tuple(np.empty(R_t.shape) for _ in range(3))
    mask = np.empty(R_t.shape, dtype=bool)
    for _, rows, _, _, _, keep, parts in _tension_strips(m, h, (rho_max, z_lo, z_hi), excision):
        mask[rows] = keep
        for out, part in zip(taus, parts):
            out[rows] = part
    return (R_t, Z_t) + taus + (mask,)


# ----------------------------------------------------------------------
# the verifier


# verifier settings
EPSILON = 0.2  # radians at each pole over which the far omega stays constant
RAYS = 7  # far-field decay rays
DECADE_POINTS = 24  # samples per decay ray, over one decade of radius
EXCISION_FACTOR = 3.0  # excision radius around the axis set, in units of h

# verdict thresholds
RAY_MARGIN = 0.25  # radians kept inside the omega wedge
SUP_CLEARANCE = 0.75  # axis clearance of the sup-stability compacts
SLOPE_LIMIT = -2.3
SUP_RATIO_LIMIT = 1.1
NOISE_FLOOR = 1e-11


_CSV_ROW = "%.9g,%.9g,%.12g,%.12g,%.12g\n"  # rho, z, tau, tau_f, tau_omega


class TensionReport(NamedTuple):
    h: float
    excision_radius: float
    domain: dict
    annuli: list
    decay: dict
    convergence: dict
    sup_bounded_pass: bool
    decay_pass: bool
    passed: bool

    def to_json_dict(self):
        return self._asdict()


def dump_csv(m, report, path):
    """Write the tension field of the map m on the spacing-h grid of its
    report, outside the excision radius, strip by strip."""
    d = report.domain
    grid = d["rho_max"], d["z_lo"], d["z_hi"]
    with open(path, "w") as fh:
        fh.write("rho,z,tau,tau_f,tau_omega\n")
        for _, _, rho, z, _, _, parts in _tension_strips(m, report.h, grid, report.excision_radius):
            keep = ~np.isnan(parts[0])
            columns = [np.broadcast_to(a, keep.shape)[keep].tolist() for a in (rho, z, *parts)]
            fh.writelines(map(_CSV_ROW.__mod__, zip(*columns)))


@np.errstate(over="ignore", invalid="ignore")  # overflow is reported below, not warned
def verify_tension(m: ModelMap, h=0.05) -> TensionReport:
    """Numerical verification of boundedness and decay of the tension.

    Reports the sup of |tau| on compact annuli at spacing h and h/2 (the
    ratio must stay below SUP_RATIO_LIMIT), a log-log decay fit along
    RAYS far-field rays of DECADE_POINTS samples each over one decade
    (slope at most SLOPE_LIMIT, unless the far tension sits below
    NOISE_FLOOR), and the residual convergence order at fixed probe
    points.  Points within EXCISION_FACTOR * h of the axis set are
    excised.  A tension value that overflows to inf or NaN raises
    ModelMapError naming it.
    """
    _check_spacing(h)
    lo, hi = _finite_extent(m.diagram)
    width = max(hi - lo, 1.0)

    # cover all frame transitions (they reach 1.6 widths past the poles)
    rho_max = width + 2.0
    z_lo = lo - 1.8 * width
    z_hi = hi + 1.8 * width
    excision = EXCISION_FACTOR * h

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
    (sups_ex, sups1, sups2), kept = _annulus_sups(m, h, grid, annuli_bounds, excision, clearance)
    if not kept:
        raise ModelMapError(
            f"the grid at h = {h} has no interior point outside the "
            f"excision radius {excision}"
        )
    annuli = []
    for (r_lo, r_hi), sup_ex, sup1, sup2 in zip(annuli_bounds, sups_ex, sups1, sups2):
        for key, sup in (("sup_excision", sup_ex), ("sup_coarse", sup1), ("sup_fine", sup2)):
            _require_finite(f"{key} of the annulus {r_lo:g} <= r < {r_hi:g}", sup)
        quiet = max(sup1, sup2) < NOISE_FLOOR
        ratio = 1.0 if quiet else max(sup1, sup2) / max(min(sup1, sup2), NOISE_FLOOR)
        annuli.append(
            {
                "r_lo": r_lo,
                "r_hi": r_hi,
                "sup_excision": sup_ex,
                "sup_coarse": sup1,
                "sup_fine": sup2,
                "ratio": ratio,
                "pass": ratio < SUP_RATIO_LIMIT or quiet,
            }
        )
    sup_ok = all(a["pass"] for a in annuli)

    radii, angles, ray_points = _decay_rays(m)
    probes = _convergence_probes(m, h, lo, hi, width)
    tau_h = _tension_at(m, ray_points + probes, h)[0]
    _require_finite(f"|tau| on a decay ray at h = {h}", tau_h[: len(ray_points)])
    _require_finite(f"|tau| at a convergence probe at h = {h}", tau_h[len(ray_points) :])
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
    )


def _annulus_sups(m, h, grid, bounds, excision, clearance):
    """Per annulus (radii about the far-field center), the sups of |tau|
    over the grid points farther than a clearance from the axis set, 0.0
    where there are none: at spacing h beyond the excision radius and
    beyond the clearance, and at h/2 beyond the clearance; and whether the
    h grid has any point beyond the excision radius.  Both grids come
    from one strip pass (_tension_strips), and each strip is reduced as
    it comes."""
    sets = ((h, excision), (h, clearance), (h / 2.0, clearance))  # (grid spacing, clearance)
    tops = [[[] for _ in bounds] for _ in sets]
    kept = False
    strips = _tension_strips(m, h, grid, excision, clearance)
    for spacing, _, rho, z, dist, keep, (tau, _, _) in strips:
        kept = kept or (spacing == h and bool(keep.any()))
        radius = np.hypot(rho, z - m.z0)
        level_sets = [(top, c) for top, (s, c) in zip(tops, sets) if s == spacing]
        for j, (r_lo, r_hi) in enumerate(bounds):
            ring = (radius >= r_lo) & (radius < r_hi)
            for top, c in level_sets:
                values = tau[ring & (dist > c)]
                if values.size:
                    # every point farther than c is kept, so a NaN here
                    # is an overflow and must reach _require_finite
                    top[j].append(values.max())
    # max is exact and order-free, so the sup of the strip sups is the sup
    return [[float(np.max(t)) if t else 0.0 for t in row] for row in tops], kept


def _require_finite(name, values):
    """Reject a tension value that overflowed double precision, so that no
    inf or NaN reaches a report."""
    for v in np.ravel(values):
        if not math.isfinite(v):
            raise ModelMapError(
                f"{name} is {v}: the tension overflows double precision "
                "(are the potential constants too large?)"
            )


def _check_spacing(h):
    """Reject a grid spacing that is not a positive finite number."""
    if not (math.isfinite(h) and h > 0.0):
        raise ModelMapError(f"grid spacing h = {h} must be finite and > 0")


def _decay_rays(m):
    """Radii, angles and (rho, z) points of the far-field decay rays; the
    points run ray by ray, outwards along each ray."""
    r_start = 1.5 * m.blend_radii[1]
    radii = r_start * np.power(10.0, np.linspace(0.0, 1.0, DECADE_POINTS))
    theta_lo = EPSILON + RAY_MARGIN
    theta_hi = math.pi - EPSILON - RAY_MARGIN
    angles = np.linspace(theta_lo, theta_hi, RAYS)
    points = [
        (r * math.sin(theta), m.z0 + r * math.cos(theta)) for theta in angles for r in radii
    ]
    return radii, angles, points


def _decay_fit(radii, angles, taus):
    """Log-log decay fit of |tau| along each ray; taus as from the points
    of _decay_rays."""
    per_ray = []
    for theta, ray_taus in zip(angles, np.reshape(taus, (len(angles), len(radii)))):
        slope = None
        if np.all(ray_taus > 0):
            slope = float(np.polyfit(np.log(radii), np.log(ray_taus), 1)[0])
        per_ray.append({"theta": float(theta), "slope": slope})
    slopes = [ray["slope"] for ray in per_ray if ray["slope"] is not None]
    max_tau = max(0.0, float(np.max(taus)))  # 0.0, not -0.0, when tau vanishes
    below_noise = max_tau < NOISE_FLOOR
    mean = band = None
    if slopes and not below_noise:
        mean, band = float(np.mean(slopes)), float(np.std(slopes))
    ok = below_noise or (mean is not None and mean <= SLOPE_LIMIT)
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
    _require_finite(f"|tau| at a convergence probe at h = {h / 2.0}", vals_h2)
    sup_h = float(vals_h.max())
    sup_h2 = float(vals_h2.max())
    order = float(math.log2(sup_h / sup_h2)) if sup_h2 > 0 and sup_h > 0 else None
    return {
        "points": [list(p) for p in probes],
        "sup_coarse": sup_h,
        "sup_fine": sup_h2,
        "order": order,
    }

