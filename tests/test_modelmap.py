import io
import json
import math
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from rodtopo import modelbuild, modelmap
from rodtopo.errors import ModelMapError
from rodtopo.roddiagram import Rod, RodDiagram, parse
from rodtopo.modelmap import (
    build_model_map,
    potentials,
    tension_field,
    tension_norm,
    verify_tension,
)

from helpers import SINGULAR_BLEND_RUN, SINGULAR_FRAME_RUN, WEYL_DIAGRAMS, frame_corpus, weyl_map

INF = float("inf")
PAPER_DIAGRAM = Path(__file__).resolve().parent.parent / "diagrams" / "two-horizon-one-corner.json"


def figure2_diagram():
    """Two horizons and a single corner, lens-type asymptotic end."""
    return RodDiagram(
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


def no_corner_diagram(c=(0.0, 0.0, 0.0)):
    """Single horizon between parallel semi-infinite rods, constant omega."""
    return RodDiagram(
        3,
        "half_plane",
        [
            Rod.axis((1, 0, 0), z=(-INF, 0.0), potential=c),
            Rod.horizon(z=(0.0, 1.0)),
            Rod.axis((1, 0, 0), z=(1.0, INF), potential=c),
        ],
    )


def rank_two_counterexample():
    """The 5-dimensional static counterexample with geometry attached."""
    return RodDiagram(
        2,
        "half_plane",
        [
            Rod.axis((1, 0), z=(-INF, 0.0), potential=(0.0, 0.0)),
            Rod.horizon(z=(0.0, 1.5)),
            Rod.axis((0, 1), z=(1.5, 3.0), potential=(0.25, 0.0)),
            Rod.horizon(z=(3.0, 4.5)),
            Rod.axis((1, 0), z=(4.5, INF), potential=(1.0, 0.0)),
        ],
    )


def rank_four_diagram():
    """A rank-4 run with a corner and two horizons: the frame curve and
    omega both ramp across each horizon, so tau_omega is nonzero."""
    return RodDiagram(
        4,
        "half_plane",
        [
            Rod.axis((1, 0, 0, 0), z=(-INF, 0.0), potential=(0.0, 0.0, 0.0, 0.0)),
            Rod.axis((0, 1, 0, 0), z=(0.0, 1.5), potential=(0.0, 0.0, 0.0, 0.0)),
            Rod.horizon(z=(1.5, 4.0)),
            Rod.axis((0, 0, 0, 1), z=(4.0, 5.5), potential=(0.3, 0.0, 0.1, 0.2)),
            Rod.horizon(z=(5.5, 8.0)),
            Rod.axis((1, 0, 0, 0), z=(8.0, INF), potential=(1.0, 0.5, 0.0, -0.4)),
        ],
    )


# ----------------------------------------------------------------------
# reference formulas the optimized library paths are compared against


def tension_parts(m, rho, z, h):
    """(|tau|, |tau_F part|, |tau_omega part|) at one point."""
    return tuple(float(part[0]) for part in modelmap._tension_at(m, [(rho, z)], h))


def fields_at(m, points):
    """(F, F^-1, det F, omega) at an (..., 2) array of (rho, z) points,
    from the point stage; F^-1 is not finite on the axis."""
    pts = np.asarray(points, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        return modelmap._point_fields(m, pts[..., 0], pts[..., 1])


def det_f(m, points):
    return np.linalg.det(fields_at(m, points)[0])


def axis_distance(m, points):
    pts = np.asarray(points, dtype=float)
    return modelmap._axis_distance(m, pts[..., 0], pts[..., 1])


def reference_frame_factors(m, points):
    """Frame factors and det(M^-1) that find chi and the distinct z values
    themselves (one frame per distinct z, one blended frame per point with
    chi > 0)."""
    pts = np.asarray(points, dtype=float)
    rho, z = pts[..., 0], pts[..., 1]
    z_axis, at = np.unique(z, return_inverse=True)
    at = at.reshape(z.shape)
    A = modelmap._profile_at(m.segments, z_axis)
    M = A[at]
    Minv = np.linalg.inv(A)[at]
    det_inv = (1.0 / np.linalg.det(A))[at]
    chi = modelmap._blend_weight(m, rho, z)
    blend = chi > 0.0
    if blend.any():
        Mb = M[blend]
        Mb += chi[blend][:, None, None] * (np.asarray(m.far_frame, dtype=float) - Mb)
        M[blend] = Mb
        Minv[blend] = np.linalg.inv(Mb)
        det_inv[blend] = 1.0 / np.linalg.det(Mb)
    return M, Minv, slot_weights(m, rho, z), det_inv


def slot_weights(m, rho, z):
    """d = (e^(U_0), ..., e^(U_(n-1))) at the points, 1 on a slot without
    terms; (..., n)."""
    d = np.ones(rho.shape + (m.diagram.n,))
    for k, U in enumerate(modelmap._slot_potentials(m, rho, z)):
        if U is not None:
            d[..., k] = np.exp(U)
    return d


def reference_piece_value(pieces, z):
    """A z-profile at one z: the single piece whose half-open [z_lo, z_hi)
    holds z, and the ramp formula applied to it."""
    (piece,) = [p for p in pieces if p.z_lo <= z < p.z_hi]
    M0, M1 = (np.asarray(M, dtype=float) for M in (piece.M0, piece.M1))
    if np.array_equal(M0, M1):
        return M0
    s = modelmap._smoothstep((z - piece.z_lo) / (piece.z_hi - piece.z_lo))
    return M0 + s * (M1 - M0)


def reference_omega(m, points):
    """Twist potentials with the piece of every point looked up on its own."""
    pts = np.asarray(points, dtype=float)
    rho, z = pts[..., 0], pts[..., 1]
    near = np.array([reference_piece_value(m.omega_profile, zz) for zz in z.ravel()])
    near = near.reshape(rho.shape + (m.diagram.n,))
    chi = modelmap._blend_weight(m, rho, z)
    blend = chi > 0.0
    if blend.any():
        ends = m.omega_profile[-1].M0, m.omega_profile[0].M0
        c_north, c_south = (np.asarray(c, dtype=float) for c in ends)
        theta = np.arctan2(rho[blend], z[blend] - m.z0)
        s_theta = modelmap._smoothstep((theta - modelmap.EPSILON) / (math.pi - 2.0 * modelmap.EPSILON))
        far = c_north + s_theta[:, None] * (c_south - c_north)
        c = chi[blend][:, None]
        near[blend] = (1.0 - c) * near[blend] + c * far
    return near


def per_point_outer_sum(X, w):
    """sum_k w_k x_k x_k^T over the rows x_k of X, point by point, in the
    order w_0 o_0 + w_1 o_1 + w_2 o_2 + ..."""
    o = [X[..., k, :, None] * X[..., k, None, :] for k in range(X.shape[-1])]
    total = w[..., 0, None, None] * o[0]
    for k in range(1, len(o)):
        total = total + w[..., k, None, None] * o[k]
    return total


def mesh_points(rho, z):
    """The (rho, z) points of two arrays that broadcast against each
    other, as one (..., 2) array."""
    return np.stack(np.broadcast_arrays(rho, z), axis=-1)


def written_into(out, fields):
    """The point fields, written into out first if it is given, as
    _point_fields does."""
    for dst, src in zip(out or (), fields):
        dst[...] = src
    return fields


def reference_point_fields(m, rho, z, level=None, out=None):
    """Point stage built from the two reference formulas on the full mesh
    of points, each with its own chi and its own distinct z; a grid
    level's z stage is ignored.  Where chi = 0, F and F^-1 are the
    rank-one sums over the rows of M^-1 and the columns of M, formed point
    by point; where chi > 0 they are the stacked products."""
    points = mesh_points(rho, z)
    M, Minv, d, det_inv = reference_frame_factors(m, points)
    Mt = np.swapaxes(M, -1, -2)
    F = per_point_outer_sum(Minv, d)
    Finv = per_point_outer_sum(Mt, 1.0 / d)
    pts = np.asarray(points, dtype=float)
    blend = modelmap._blend_weight(m, pts[..., 0], pts[..., 1]) > 0.0
    F[blend] = modelmap._congruence(Minv[blend], d[blend])
    Finv[blend] = modelmap._congruence(Mt[blend], 1.0 / d[blend])
    return written_into(out, (F, Finv, d.prod(-1) * det_inv**2, reference_omega(m, points)))


def reference_kernel_point_fields(m, rho, z, level=None, out=None):
    """The former point stage on the full mesh of points: F and F^-1 as
    stacked products at every point, and det F taken per point by
    np.linalg.det."""
    points = mesh_points(rho, z)
    M, Minv, d, _ = reference_frame_factors(m, points)
    F = modelmap._congruence(Minv, d)
    Finv = modelmap._congruence(np.swapaxes(M, -1, -2), 1.0 / d)
    return written_into(out, (F, Finv, np.linalg.det(F), reference_omega(m, points)))


def reference_tension_stencil(F, Finv, f, w, rho, h):
    """The stencil stage written out with stacked products: G from
    F^-1 times the outer products of dw, tr(A^2) from A @ A and the
    quadratic form in one einsum."""
    two_h = 2.0 * h
    # fluxes H = F^-1 dF and K = F^-1 dw / det F, only where the divergence
    # reads them: rho-fluxes one row past the result, z-fluxes one column
    Fi_rho = Finv[1:-1, 2:-2]
    Fi_z = Finv[2:-2, 1:-1]
    H_rho = Fi_rho @ ((F[2:, 2:-2] - F[:-2, 2:-2]) / two_h)
    H_z = Fi_z @ ((F[2:-2, 2:] - F[2:-2, :-2]) / two_h)
    dw_rho = (w[2:, 2:-2] - w[:-2, 2:-2]) / two_h
    dw_z = (w[2:-2, 2:] - w[2:-2, :-2]) / two_h
    K_rho = np.einsum("...ij,...j->...i", Fi_rho, dw_rho) / f[1:-1, 2:-2, ..., None]
    K_z = np.einsum("...ij,...j->...i", Fi_z, dw_z) / f[2:-2, 1:-1, ..., None]
    divH = modelmap._divergence(H_rho, H_z, rho[..., None, None], h)
    divK = modelmap._divergence(K_rho, K_z, rho[..., None], h)

    dw_rho, dw_z = dw_rho[1:-1], dw_z[:, 1:-1]
    grad2 = np.einsum("...i,...j->...ij", dw_rho, dw_rho) + np.einsum(
        "...i,...j->...ij", dw_z, dw_z
    )
    f_in = f[2:-2, 2:-2]
    G = (Finv[2:-2, 2:-2] @ grad2) / f_in[..., None, None]

    A = divH + G
    trA = np.trace(A, axis1=-2, axis2=-1)
    trA2 = np.clip(np.trace(A @ A, axis1=-2, axis2=-1), 0.0, None)
    omega_term = 0.5 * f_in * np.einsum("...i,...ij,...j->...", divK, F[2:-2, 2:-2], divK)
    tau_f = np.sqrt(np.clip(0.25 * trA**2 + 0.25 * trA2, 0.0, None))
    tau_w = np.sqrt(np.clip(omega_term, 0.0, None))
    tau = np.sqrt(np.clip(0.25 * trA**2 + 0.25 * trA2 + omega_term, 0.0, None))
    return tau, tau_f, tau_w


def full_span_tension_stencil(F, Finv, f, w, rho, h):
    """The entry-plane stencil stage with the omega terms evaluated at
    every result point, whatever w does there."""
    two_h = 2.0 * h
    n = F.shape[-1]
    # fluxes H = F^-1 dF and K = F^-1 dw / det F, only where the divergence
    # reads them: rho-fluxes one row past the result, z-fluxes one column
    Fi_rho = Finv[1:-1, 2:-2]
    Fi_z = Finv[2:-2, 1:-1]
    divH = modelmap._divergence(
        Fi_rho @ ((F[2:, 2:-2] - F[:-2, 2:-2]) / two_h),  # H_rho
        Fi_z @ ((F[2:-2, 2:] - F[2:-2, :-2]) / two_h),  # H_z
        rho[..., None, None],
        h,
    )

    dw_rho = [(w[2:, 2:-2, ..., j] - w[:-2, 2:-2, ..., j]) / two_h for j in range(n)]
    dw_z = [(w[2:-2, 2:, ..., j] - w[2:-2, :-2, ..., j]) / two_h for j in range(n)]
    f_rho, f_z = f[1:-1, 2:-2], f[2:-2, 1:-1]
    K_rho = [sum(Fi_rho[..., i, j] * dw_rho[j] for j in range(n)) / f_rho for i in range(n)]
    K_z = [sum(Fi_z[..., i, j] * dw_z[j] for j in range(n)) / f_z for i in range(n)]
    divK = [modelmap._divergence(K_rho[i], K_z[i], rho, h) for i in range(n)]

    # G = F^-1 (dw dw^T summed over rho and z) / det F is the sum of the
    # outer products of the central fluxes K with dw
    A = [
        [
            divH[..., i, j]
            + K_rho[i][1:-1] * dw_rho[j][1:-1]
            + K_z[i][:, 1:-1] * dw_z[j][:, 1:-1]
            for j in range(n)
        ]
        for i in range(n)
    ]
    trA = sum(A[i][i] for i in range(n))
    trA2 = np.clip(sum(A[i][j] * A[j][i] for i in range(n) for j in range(n)), 0.0, None)
    F_in = F[2:-2, 2:-2]
    F_divK = [sum(F_in[..., i, j] * divK[j] for j in range(n)) for i in range(n)]
    omega_term = 0.5 * f[2:-2, 2:-2] * sum(divK[i] * F_divK[i] for i in range(n))
    tau_f2 = 0.25 * trA**2 + 0.25 * trA2
    tau_f = np.sqrt(tau_f2)
    tau_w = np.sqrt(np.clip(omega_term, 0.0, None))
    tau = np.sqrt(np.clip(tau_f2 + omega_term, 0.0, None))
    return tau, tau_f, tau_w


def verifier_grid(m):
    """The width of the diagram's finite extent and verify_tension's grid
    (rho_max, z_lo, z_hi)."""
    lo, hi = modelbuild._finite_extent(m.diagram)
    width = max(hi - lo, 1.0)
    return width, (width + 2.0, lo - 1.8 * width, hi + 1.8 * width)


def reference_annuli(m, h):
    """Annulus records of verify_tension (default excision factor) from both
    fields held whole: nanmax of tension_field at h and h/2 over full-grid
    ring masks."""
    width, (rho_max, z_lo, z_hi) = verifier_grid(m)
    excision = 3.0 * h
    clearance = max(modelmap.SUP_CLEARANCE, excision)
    R1, Z1, T1, _, _, M1 = tension_field(m, h, rho_max, z_lo, z_hi, excision=excision)
    R2, Z2, T2, _, _, M2 = tension_field(m, h / 2.0, rho_max, z_lo, z_hi, excision=clearance)
    center_r1 = np.hypot(R1, Z1 - m.z0)
    dist1 = axis_distance(m, np.stack([R1, Z1], axis=-1))
    center_r2 = np.hypot(R2, Z2 - m.z0)
    annuli = []
    for r_lo, r_hi in [
        (0.0, 0.75 * width),
        (0.75 * width, 1.5 * width),
        (1.5 * width, 1.8 * width + rho_max),
    ]:
        ring1 = M1 & (center_r1 >= r_lo) & (center_r1 < r_hi)
        sup_ex = float(np.nanmax(np.where(ring1, T1, np.nan))) if ring1.any() else 0.0
        sel1 = ring1 & (dist1 > clearance)
        sup1 = float(np.nanmax(np.where(sel1, T1, np.nan))) if sel1.any() else 0.0
        sel2 = M2 & (center_r2 >= r_lo) & (center_r2 < r_hi)
        sup2 = float(np.nanmax(np.where(sel2, T2, np.nan))) if sel2.any() else 0.0
        floor = modelmap.NOISE_FLOOR
        if sup1 < floor and sup2 < floor:
            ratio = 1.0
        else:
            ratio = max(sup1, sup2) / max(min(sup1, sup2), floor)
        ok = ratio < modelmap.SUP_RATIO_LIMIT or max(sup1, sup2) < floor
        annuli.append(
            {"r_lo": r_lo, "r_hi": r_hi, "sup_excision": sup_ex, "sup_coarse": sup1,
             "sup_fine": sup2, "ratio": ratio, "pass": ok}
        )
    return annuli


# ----------------------------------------------------------------------
# potentials


def test_potentials_on_axis_values():
    a = 0.7
    u, v = potentials(a, 0.0, a + 1.0)
    assert math.exp(u) == 0.0
    assert math.exp(v) == pytest.approx(2.0)
    u, v = potentials(a, 0.0, a - 1.0)
    assert math.exp(u) == pytest.approx(2.0)
    assert math.exp(v) == 0.0


def test_potentials_singular_point():
    with pytest.raises(ValueError):
        potentials(1.5, 0.0, 1.5)
    # off the half plane, or not a finite point: once (nan, 0.48...),
    # (nan, nan) and (-inf, inf)
    for rho, z in [(-1.0, 0.5), (math.nan, 0.5), (1.0, math.inf), (math.inf, 1.0), (1.0, math.nan)]:
        with pytest.raises(ValueError, match="not a finite point of the half plane"):
            potentials(0.0, rho, z)


def _axi_laplacian(fn, rho, z, h):
    c = fn(rho, z)
    return (
        (fn(rho + h, z) - 2 * c + fn(rho - h, z)) / h**2
        + (fn(rho + h, z) - fn(rho - h, z)) / (2 * h * rho)
        + (fn(rho, z + h) - 2 * c + fn(rho, z - h)) / h**2
    )


def test_potentials_harmonic_second_order():
    a = 0.3

    def u(rho, z):
        return potentials(a, rho, z)[0]

    def v(rho, z):
        return potentials(a, rho, z)[1]

    for fn in (u, v):
        res = [abs(_axi_laplacian(fn, 0.9, 1.4, h)) for h in (0.04, 0.02, 0.01)]
        order1 = math.log2(res[0] / res[1])
        order2 = math.log2(res[1] / res[2])
        assert 1.8 <= order1 <= 2.2
        assert 1.8 <= order2 <= 2.2


def test_v_pot_matches_its_direct_formula_bit_for_bit():
    def direct_v_pot(a, rho, z):
        """log(r_a + (z - a)) written out, cancellation-free for z < a."""
        dz = z - a
        r = np.hypot(rho, dz)
        with np.errstate(divide="ignore", invalid="ignore"):
            direct = np.log(r + dz)
            safe = 2.0 * np.log(rho) - np.log(r - dz)
        return np.where(dz <= 0, safe, direct)

    rho, dz = np.meshgrid(
        [0.0, 1e-12, 1e-3, 1.0, 1e6], [0.0, 1e-12, -1e-12, 1.0, -1.0, 1e8, -1e8], indexing="ij"
    )
    for a in (0.0, 1.5, -2.25):
        z = a + dz
        got = modelmap._v_from(*modelmap._endpoint_log(a, rho, z), modelmap._log_rho2(rho))
        assert got.tobytes() == direct_v_pot(a, rho, z).tobytes()


def former_u_pot(a, rho, z):
    """log(r_a - (z - a)) with 2 log rho taken inside, once per rod term."""
    dz = z - a
    r = np.hypot(rho, dz)
    with np.errstate(divide="ignore", invalid="ignore"):
        direct = np.log(r - dz)
        safe = 2.0 * np.log(rho) - np.log(r + dz)
    return np.where(dz >= 0, safe, direct)


def reference_slot_potentials(m, rho, z):
    """Each slot's potential U_k summed from its rod terms with one
    logarithm per term (former_u_pot); None for a slot without terms."""
    want = []
    for terms in m.terms:
        acc = np.zeros_like(rho) if terms else None
        for term in terms:
            if term[0] == "u":
                acc += former_u_pot(term[1], rho, z)
            elif term[0] == "v":
                acc += former_u_pot(-term[1], rho, -z)
            else:
                _, a, b = term
                ua, ub = former_u_pot(a, rho, z), former_u_pot(b, rho, z)
                north = (rho == 0.0) & (z > b)
                ua[north] = np.log((z[north] - b) / (z[north] - a))
                ub[north] = 0.0
                acc += ua - ub
        want.append(acc)
    return want


def test_shared_log_rho_is_bit_identical():
    # _slot_potentials takes 2 log rho once for all its rod terms; every
    # term, and so each U_k, must come out as it did with one logarithm
    # per term
    rho, dz = np.meshgrid(
        [0.0, 1e-12, 1e-3, 1.0, 1e6], [0.0, 1e-12, -1e-12, 1.0, -1.0, 1e8, -1e8], indexing="ij"
    )
    for a in (0.0, 1.5, -2.25):
        z = a + dz
        got = modelmap._u_from(*modelmap._endpoint_log(a, rho, z), modelmap._log_rho2(rho))
        assert np.array_equal(got, former_u_pot(a, rho, z), equal_nan=True)

    m = build_model_map(figure2_diagram())
    rho, z = np.meshgrid([0.0, 1e-3, 0.5, 2.0, 40.0], np.linspace(-12.0, 20.0, 65), indexing="ij")
    want = reference_slot_potentials(m, rho, z)
    got = modelmap._slot_potentials(m, rho, z)
    assert len(got) == m.diagram.n and got[2] is None is want[2]
    for got_k, ref in zip(got[:2], want):
        assert np.array_equal(got_k, ref, equal_nan=True)


def assert_table_potentials_match_per_point(m, rho, z):
    """U_k on the grid of the axes rho and z from a grid level's endpoint
    table are, byte for byte, U_k from the per-point logarithms on the
    full mesh of its points."""
    got = modelmap._slot_potentials(m, rho[:, None], z[None, :], modelmap._z_stage(m, z))
    R, Z = np.meshgrid(rho, z, indexing="ij")
    want = modelmap._slot_potentials(m, R, Z)
    assert [U is None for U in got] == [U is None for U in want]
    for got_k, want_k in zip(got, want):
        if want_k is not None:
            assert got_k.shape == want_k.shape and got_k.tobytes() == want_k.tobytes()


@pytest.mark.parametrize("h", [0.1, 0.05, 0.025])
def test_endpoint_table_potentials_on_paper_verifier_grids(h):
    # the two levels of verify_tension at h = 0.1 (0.1 and 0.05) and at
    # h = 0.05 (0.05 and 0.025)
    m = build_model_map(parse(PAPER_DIAGRAM.read_text()))
    assert_table_potentials_match_per_point(m, *modelmap._grid_axes(h, *verifier_grid(m)[1]))


def test_endpoint_table_potentials_on_built_frame_corpus_maps():
    built = []
    for d in frame_corpus(300):
        try:
            built.append(build_model_map(d))
        except ModelMapError:
            continue
    sample = np.random.default_rng(40).choice(len(built), 10, replace=False)
    for k in sample:
        m = built[k]
        for h in (0.2, 0.1):
            assert_table_potentials_match_per_point(m, *modelmap._grid_axes(h, *verifier_grid(m)[1]))


def test_endpoint_table_potentials_on_endpoint_columns():
    # columns on the endpoints: z - a = -0.0 at a = 0 (z = -0.0) and +0.0
    # at the others, where u and v both read the 2 log rho - L half; a row
    # on the axis takes the north limit of the ud terms, and log 0 on the
    # endpoint columns
    m = build_model_map(figure2_diagram())
    ends = sorted({a for t in m.terms for term in t for a in term[1:]})
    z = np.array(sorted(ends + [-3.0, -1e-300, 1e-300, 0.75, 30.0]))
    z[z == 0.0] = -0.0
    assert 0.0 in ends and np.signbit(z - 0.0).sum() == 3
    assert_table_potentials_match_per_point(m, np.array([0.0, 1e-300, 1e-3, 0.5, 2.0, 40.0]), z)


@pytest.mark.parametrize(
    "n, empty_slot", [(3, None), (4, None), (3, 0)], ids=["n3", "n4", "n3-empty-slot-0"]
)
def test_generalized_weyl_map_is_exact(n, empty_slot):
    # one potential per slot: with identity frames and omega = 0 the model
    # map is the exactly harmonic F = diag(exp Sigma_k), on and off the
    # radial blend, and tau at fixed probes is the stencil's O(h^2)
    # truncation error alone.  Emptying a slot keeps the map harmonic,
    # with F_kk = 1 there.
    m = weyl_map(parse(json.dumps(WEYL_DIAGRAMS[n])))
    assert all(m.terms) and len(m.terms) == n
    if empty_slot is not None:
        m = m._replace(terms=tuple(() if k == empty_slot else t for k, t in enumerate(m.terms)))
    rho, z = np.meshgrid([0.05, 0.5, 2.0, 40.0, 60.0, 200.0], np.linspace(-30.0, 40.0, 57))
    chi = modelmap._blend_weight(m, rho, z)
    assert np.any(chi == 0.0) and np.any((0.0 < chi) & (chi < 1.0)) and np.any(chi == 1.0)
    want = np.zeros(rho.shape + (n, n))
    for k, U in enumerate(reference_slot_potentials(m, rho, z)):
        want[..., k, k] = 1.0 if U is None else np.exp(U)
    assert np.array_equal(fields_at(m, np.stack([rho, z], axis=-1))[0], want)

    probes = [(r, zz) for r in (0.5, 2.0) for zz in np.arange(-1.0, 11.0, 1.25)]
    sups = [modelmap._tension_at(m, probes, h)[0].max() for h in (0.1, 0.05, 0.025)]
    orders = [math.log2(coarse / fine) for coarse, fine in zip(sups, sups[1:])]
    assert min(orders) >= 1.8, orders


def test_potentials_stable_far_field():
    # the naive form of log(r - (z - a)) loses all digits up here
    u, v = potentials(0.0, 1.0, 1e8)
    assert u == pytest.approx(math.log(1.0 / (2.0e8)), rel=1e-9)
    assert v == pytest.approx(math.log(2.0e8), rel=1e-12)


# ----------------------------------------------------------------------
# construction


def test_kernel_alignment_on_rod_tubes():
    d = figure2_diagram()
    m = build_model_map(d)
    mids = {0: -1.0, 1: 0.75, 3: 4.75, 5: 10.0}
    for idx, zm in mids.items():
        F = fields_at(m, np.array([[1e-6, zm]]))[0][0]
        w, vecs = np.linalg.eigh(F)
        kernel = vecs[:, 0]
        structure = np.array(d.rods[idx].structure.v, dtype=float)
        cosine = abs(kernel @ structure) / (
            np.linalg.norm(kernel) * np.linalg.norm(structure)
        )
        assert cosine > 1.0 - 1e-8
        assert w[0] < 1e-8 * w[-1]


def test_map_finite_and_positive_off_axis():
    m = build_model_map(figure2_diagram())
    rng = np.random.default_rng(5)
    pts = np.column_stack(
        [rng.uniform(0.05, 30.0, 300), rng.uniform(-25.0, 35.0, 300)]
    )
    pts = pts[axis_distance(m, pts) > 0.05]
    F = fields_at(m, pts)[0]
    assert np.all(np.isfinite(F))
    eig = np.linalg.eigvalsh(F)
    assert np.all(eig > 0)
    w = fields_at(m, pts)[3]
    assert np.all(np.isfinite(w))


def test_omega_constant_on_tubes():
    d = figure2_diagram()
    m = build_model_map(d)
    # on the middle rod tube the potential constant is (0.3, 0, 0.1)
    pts = np.array([[0.1, 4.3], [0.2, 5.0], [0.05, 4.9]])
    w = fields_at(m, pts)[3]
    assert np.allclose(w, [0.3, 0.0, 0.1])
    # far north axis: the north constant
    w = fields_at(m, np.array([[0.5, 80.0]]))[3]
    assert np.allclose(w, [1.0, 0.5, 0.0])


def test_missing_geometry_rejected():
    d = RodDiagram(
        3,
        "half_plane",
        [Rod.axis((1, 0, 0)), Rod.horizon(), Rod.axis((0, 1, 0))],
    )
    with pytest.raises(ModelMapError):
        build_model_map(d)


def test_missing_potentials_rejected():
    d = RodDiagram(
        3,
        "half_plane",
        [
            Rod.axis((1, 0, 0), z=(-INF, 0.0)),
            Rod.horizon(z=(0.0, 1.0)),
            Rod.axis((0, 1, 0), z=(1.0, INF)),
        ],
    )
    with pytest.raises(ModelMapError):
        build_model_map(d)


def test_frame_ramp_singular_between_samples_rejected():
    # the ramp's det has both roots between sample points of a 101-point
    # check, which once built this map and passed verify_tension at h = 0.1
    with pytest.raises(ModelMapError, match="frame transition passes through a degenerate matrix"):
        build_model_map(parse(json.dumps(SINGULAR_FRAME_RUN)))


def test_radial_blend_singular_between_samples_rejected():
    # the plateau and far frames have det -1, but their blend has det > 0
    # near chi = 0.57; a sampled check that never looked at a sign missed it
    with pytest.raises(ModelMapError, match="radial frame blend passes through a degenerate"):
        build_model_map(parse(json.dumps(SINGULAR_BLEND_RUN)))


def ramp(M0, M1):
    """The certificate patch of the straight ramp from M0 to M1 (rows)."""
    edge = tuple(tuple(map(tuple, np.asarray(M).T.tolist())) for M in (M0, M1))
    return (edge, edge)


def det_calls(monkeypatch):
    """Record every (matrix, det) the certificate evaluates, in order."""
    calls = []
    real = modelbuild._bareiss_det

    def spy(rows):
        calls.append(([list(r) for r in rows], real([list(r) for r in rows])))
        return calls[-1][1]

    monkeypatch.setattr(modelbuild, "_bareiss_det", spy)
    return calls


def test_certificate_rejects_a_ramp_at_its_exact_zero(monkeypatch):
    # det(I + s (diag(-1, -1, 1) - I)) = (1 - 2s)^2 vanishes at s = 1/2,
    # which the first halving doubles to the corner diag(0, 0, 2)
    calls = det_calls(monkeypatch)
    assert not modelbuild._det_keeps_sign(ramp(np.eye(3, dtype=int), np.diag([-1, -1, 1])), 1)
    assert calls[-1] == ([[0, 0, 0], [0, 0, 0], [0, 0, 2]], 0)


def test_certificate_rejects_the_fixture_ramp_at_three_eighths(monkeypatch):
    # the roots 1/3 and (3 - sqrt 5)/2 lie between dyadic points; three
    # halvings reach s = 3/8, where 8 M(3/8) = 5 M0 + 3 M1 has det < 0
    M0 = np.array([[1, 1, -1], [-1, -1, 0], [0, 1, 0]])
    M1 = np.array([[1, 1, 0], [0, 0, 1], [2, 0, 0]])
    calls = det_calls(monkeypatch)
    assert not modelbuild._det_keeps_sign(ramp(M0, M1), 1)
    rows, det = calls[-1]
    assert np.array_equal(np.array(rows).T, 5 * M0 + 3 * M1) and det < 0


def test_certificate_subdivides_a_path_that_comes_near_zero(monkeypatch):
    # det(I + s (M1 - I)) = 1 - 4s + 5s^2 > 0 has a negative Bernstein
    # coefficient on [0, 1], so only halving certifies it
    M1 = np.array([[-1, -1, 0], [1, -1, 0], [0, 0, 1]])
    assert modelbuild._det_keeps_sign(ramp(np.eye(3, dtype=int), M1), 1)
    monkeypatch.setattr(modelbuild, "CERTIFICATE_DEPTH", 0)
    assert not modelbuild._det_keeps_sign(ramp(np.eye(3, dtype=int), M1), 1)


def test_certificate_certifies_a_path_after_five_halvings(monkeypatch):
    # det(I + s (M1 - I)) = 17s^3 + 4s^2 - 6s + 1 > 0 comes within 0.007
    # of 0 near s = 0.27; the Bernstein coefficients of the pieces there
    # are all positive only once they are 1/32 wide
    M1 = np.array([[-1, -2, -1], [-2, 0, 2], [-1, 1, -2]])
    assert modelbuild._det_keeps_sign(ramp(np.eye(3, dtype=int), M1), 1)
    monkeypatch.setattr(modelbuild, "CERTIFICATE_DEPTH", 4)
    assert not modelbuild._det_keeps_sign(ramp(np.eye(3, dtype=int), M1), 1)


def test_certificate_covers_a_plateau_patch():
    # corners (A, A, far, far), given by columns: only chi varies.  A and
    # far are SINGULAR_BLEND_RUN's plateau and far frames, det -1 each
    far = ((2, -1, 2), (1, 1, -1), (1, 0, 0))
    A = ((2, -1, 0), (1, -1, 0), (0, 0, 1))
    assert not modelbuild._det_keeps_sign(((A, A), (far, far)), -1)
    B = ((1, 0, 0), (0, 1, 0), (0, 0, -1))  # det(B + chi (far - B)) = 2 chi^3 - 2 chi^2 - 1
    assert modelbuild._det_keeps_sign(((B, B), (far, far)), -1)
    assert modelbuild._det_keeps_sign(((far, far), (far, far)), -1)


def test_frame_paths_match_an_independent_root_count(monkeypatch):
    # every ramp of a built map has a det without a root in [0, 1], and so
    # has its blend toward the far frame on rational slices; every patch
    # the build rejects has a root there
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    symbol = sympy.Symbol("x")
    R = sympy.ZZ[symbol]
    x = R.gens[0]

    def has_root(P0, P1):
        """Whether det(P0 + x (P1 - P0)), for integer matrices given as
        rows, has a root x in [0, 1]."""
        rows = [[R(a) + R(b - a) * x for a, b in zip(r0, r1)] for r0, r1 in zip(P0, P1)]
        det = DomainMatrix(rows, (len(rows), len(rows)), R).det()
        return sympy.Poly.from_list(det.to_dense(), symbol).count_roots(0, 1) > 0

    def slices(P0, P1, q):
        """q A(j/q) = (q - j) P0 + j P1 for j = 0..q, as integer rows."""
        return [
            [[(q - j) * a + j * b for a, b in zip(r0, r1)] for r0, r1 in zip(P0, P1)]
            for j in range(q + 1)
        ]

    def scaled(P, q):
        return [[q * a for a in row] for row in P]

    rejected = []
    real = modelbuild._det_keeps_sign

    def record(corners, sign, level=0):
        ok = real(corners, sign, level)
        if level == 0 and not ok:
            rejected.append(corners)
        return ok

    monkeypatch.setattr(modelbuild, "_det_keeps_sign", record)
    outcomes = {"built": 0, "transition": 0, "radial": 0}
    for k, d in enumerate(frame_corpus(1000)):
        rejected.clear()
        try:
            m = build_model_map(d)
        except ModelMapError as e:
            kind = next((w for w in ("transition", "radial") if w in str(e)), None)
            if kind is None:
                continue
            outcomes[kind] += 1
            (P0, P1), (P2, _) = [[np.array(P).T.tolist() for P in row] for row in rejected[-1]]
            if kind == "transition":
                assert has_root(P0, P1)
            else:
                # the certificate refutes at a corner s = j/64 at the deepest
                assert any(has_root(A, scaled(P2, 64)) for A in slices(P0, P1, 64))
            continue
        outcomes["built"] += 1
        if k % 10:
            continue
        for seg in m.segments:
            if not seg.constant:
                assert not has_root(seg.M0, seg.M1)
                for A in slices(seg.M0, seg.M1, 8):
                    assert not has_root(A, scaled(m.far_frame, 8))
    # ROADMAP items 5 and 6 are to turn these rejections into built maps
    assert outcomes == {"built": 371, "transition": 313, "radial": 9}


# ----------------------------------------------------------------------
# tension


def test_omega_terms_vanish_exactly_where_omega_constant():
    m = build_model_map(no_corner_diagram())
    tau, tau_f, tau_w = tension_parts(m, 1.2, 0.5, 0.05)
    assert tau_w == 0.0
    assert tau == tau_f


def test_harmonic_configuration_second_order_residual():
    m = build_model_map(no_corner_diagram())
    for rho, z in [(1.0, 0.5), (1.5, -0.8), (0.8, 1.9)]:
        t1 = tension_norm(m, rho, z, 0.05)
        t2 = tension_norm(m, rho, z, 0.025)
        order = math.log2(t1 / t2)
        assert 1.8 <= order <= 2.2


def test_fig2_harmonic_in_plateau_regions():
    m = build_model_map(figure2_diagram())
    # middle-rod tube, constant omega, constant frame: residual is O(h^2)
    t1 = tension_norm(m, 0.9, 4.75, 0.04)
    t2 = tension_norm(m, 0.9, 4.75, 0.02)
    assert 1.7 <= math.log2(t1 / t2) <= 2.3


def test_tension_bounded_vs_corrupted_blowup():
    d = figure2_diagram()
    m = build_model_map(d)
    mc = build_model_map(d, corrupt_transition=True)
    # sample inside the southern frame transition, approaching the axis;
    # converged values stay flat for the valid map and grow like 1/rho^2
    # for the corrupted one
    z = -8.0
    rhos = [0.4, 0.2, 0.1]
    good = [tension_norm(m, r, z, r / 32) for r in rhos]
    bad = [tension_norm(mc, r, z, r / 32) for r in rhos]
    assert bad[-1] / bad[0] > 10.0
    assert bad[-1] > 50.0 * good[-1]


def test_stencil_domain_errors():
    m = build_model_map(no_corner_diagram())
    with pytest.raises(ValueError):
        tension_norm(m, 0.05, 0.5, 0.05)  # stencil leaves the half plane
    with pytest.raises(ValueError):
        tension_norm(m, 0.2, -3.0, 0.1)  # reaches the axis rod at rho = 0
    # these once gave NaN, the last two with numpy warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for rho, z in [(math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan), (1.0, math.inf)]:
            with pytest.raises(ValueError, match="stencil"):
                tension_norm(m, rho, z, 0.05)
    # these once gave 0.0: h is below the spacing of doubles there, so the
    # five rows or columns of the stencil were one, or (the last two) they
    # were spaced 0.0625 and 0.125, or 0.125, and divided by 2h all the same
    for rho, z in [(1e16, 3.0), (1e17, 1.0), (1.0, 1e17), (2.0, 1e300), (5 + 2**48, 3.0),
                   (5.0, 1e15)]:
        with pytest.raises(ValueError, match="stencil points are not spaced evenly"):
            tension_norm(m, rho, z, 0.1)


@pytest.mark.parametrize("h", [0.0, -0.05, math.nan, math.inf])
def test_tension_rejects_bad_spacing(h):
    # both once ran: tension_norm gave NaN, or the value at |h|, and
    # tension_field raised ZeroDivisionError or returned empty arrays
    m = build_model_map(no_corner_diagram())
    message = f"grid spacing h = {h} must be finite and > 0"
    with pytest.raises(ModelMapError, match=message):
        tension_norm(m, 1.0, 1.0, h)
    with pytest.raises(ModelMapError, match=message):
        tension_field(m, h, 3.0, -1.0, 3.0)


@pytest.mark.parametrize(
    "bounds, message",
    [
        ((INF, -1.0, 3.0), "grid bound rho_max = inf must be finite"),
        ((math.nan, -1.0, 3.0), "grid bound rho_max = nan must be finite"),
        ((3.0, -INF, 3.0), "grid bound z_lo = -inf must be finite"),
        ((3.0, -1.0, math.nan), "grid bound z_hi = nan must be finite"),
        ((-1.0, -1.0, 3.0), "grid bounds rho_max = -1.0 leave no interior point at h = 0.5"),
        ((2.0, -1.0, 3.0), "grid bounds rho_max = 2.0 leave no interior point at h = 0.5"),
        ((3.0, 3.0, -1.0), "grid bounds z_lo = 3.0, z_hi = -1.0 leave no interior point at h = 0.5"),
        ((3.0, 1.0, 1.0), "grid bounds z_lo = 1.0, z_hi = 1.0 leave no interior point at h = 0.5"),
        ((3.0, 1.0, 2.5), "grid bounds z_lo = 1.0, z_hi = 2.5 leave no interior point at h = 0.5"),
        (
            (3.0, 1e17, 1e17 + 20.0),
            f"grid bounds z_lo = {1e17}, z_hi = {1e17 + 20.0} space adjacent grid points "
            "unevenly: h = 0.5 is too fine for the float resolution there",
        ),
        (
            (3.0, 1e15, 1e15 + 6.0, 0.3),
            f"grid bounds z_lo = {1e15}, z_hi = {1e15 + 6.0} space adjacent grid points "
            "unevenly: h = 0.3 is too fine for the float resolution there",
        ),
    ],
)
def test_tension_field_rejects_bad_bounds(bounds, message):
    # these once raised OverflowError, a bare ValueError, numpy's reshape
    # or broadcast errors, or returned empty arrays; the last two gave a
    # grid with two distinct z values, or z spaced 0.25 and 0.375, and
    # tau = 0.  A fourth entry is the spacing h, 0.5 if absent.
    m = build_model_map(no_corner_diagram())
    rho_max, z_lo, z_hi, h = (*bounds, 0.5)[:4]
    with pytest.raises(ModelMapError, match=re.escape(message)):
        tension_field(m, h, rho_max, z_lo, z_hi)


@pytest.mark.parametrize("excision", [math.nan, INF, -1.0, "a"])
def test_tension_field_rejects_a_bad_excision(excision):
    # NaN once excised every point, and "a" raised numpy's UFuncTypeError
    m = build_model_map(no_corner_diagram())
    message = f"excision radius excision = {excision} must be a finite number >= 0"
    with pytest.raises(ModelMapError, match=re.escape(message)):
        tension_field(m, 0.5, 3.0, -1.0, 3.0, excision=excision)


@pytest.mark.parametrize(
    "point, message",
    [
        ((-1.0, 1.0), "needs a point of the half plane rho >= 0"),
        ((-5.0, 1.0), "needs a point of the half plane rho >= 0"),
        ((math.nan, 1.0), "needs a finite point"),
        ((1.0, INF), "needs a finite point"),
    ],
)
def test_map_fields_reject_points_off_the_half_plane(point, message):
    # the stencil reads the map's fields at the point, which must be a
    # finite point of the half plane
    m = build_model_map(figure2_diagram())
    with pytest.raises(ValueError, match=re.escape(f"stencil {message}")):
        tension_norm(m, *point, 0.05)


@pytest.mark.parametrize("h", [1e-300, 1e-20])
def test_tension_rejects_a_spacing_too_fine_for_an_array(h):
    # both once raised numpy's bare "Maximum allowed size exceeded"; the
    # grid's row and column counts are checked before any array exists
    m = build_model_map(no_corner_diagram())
    message = f"grid spacing h = {h} gives more grid points than an array can hold"
    with pytest.raises(ModelMapError, match=re.escape(message)):
        tension_field(m, h, 10.0, 0.0, 1.0)
    with pytest.raises(ModelMapError, match=re.escape(message)):
        verify_tension(m, h)


def test_tension_field_smallest_grid_has_one_point():
    # one row or column less than this grid is rejected above
    m = build_model_map(no_corner_diagram())
    assert tension_field(m, 0.5, 2.5, 1.0, 3.0)[2].shape == (1, 1)


@pytest.mark.parametrize("a", [math.nan, INF, -INF])
def test_potentials_reject_a_non_finite_axis_point(a):
    # these once returned (nan, nan) and (inf, -inf)
    with pytest.raises(ValueError, match=f"axis point a = {a} is not finite"):
        potentials(a, 1.0, 0.0)


def test_det_growth_matches_kaluza_klein_scale():
    m = build_model_map(figure2_diagram())
    rs = np.array([60.0, 120.0, 240.0, 480.0])
    pts = np.column_stack([rs, np.full_like(rs, m.z0)])  # equatorial ray
    f = det_f(m, pts)
    slope = np.polyfit(np.log(rs), np.log(f), 1)[0]
    assert abs(slope - 2.0) < 0.1


def test_grid_and_pointwise_tension_agree():
    m = build_model_map(figure2_diagram())
    h = 0.1
    R, Z, T, _, _, M = tension_field(m, h, 3.0, 1.0, 3.0)
    for k, l in [(5, 4), (10, 9), (15, 14), (8, 2)]:
        if not M[k, l]:
            continue
        pointwise = tension_norm(m, R[k, l], Z[k, l], h)
        assert pointwise == pytest.approx(T[k, l], rel=1e-9)


def test_tension_field_independent_of_strip_height(monkeypatch):
    m = build_model_map(figure2_diagram())
    args = (m, 0.1, 3.0, -1.0, 6.0)
    default = tension_field(*args)
    rows = default[2].shape[0]
    for strip_rows in (1, rows + 5):
        monkeypatch.setattr(modelmap, "STRIP_ROWS", strip_rows)
        for got, want in zip(tension_field(*args), default):
            assert np.array_equal(got, want, equal_nan=True)


def test_F_is_finite_on_the_axis_north_of_a_finite_slot_rod():
    m = build_model_map(figure2_diagram())
    for z in (4.75, 10.0):
        on_axis = fields_at(m, np.array([(0.0, z)]))[0]
        assert np.all(np.isfinite(on_axis))
        # the limit of the ("ud", a, b) term as rho -> 0
        np.testing.assert_allclose(on_axis, fields_at(m, np.array([(1e-300, z)]))[0], rtol=1e-12)


def frame_sample_points(m):
    """z samples at the middle of every frame piece and at every finite
    piece boundary of the frame curve and of the omega profile, and the
    points at rho = 0.5, 2, the middle of the blend annulus and past it
    on each; rho outer, z inner."""
    R1, R2 = m.blend_radii
    z_samples = [
        seg.z_hi - 1.0 if seg.z_lo == -INF
        else seg.z_lo + 1.0 if seg.z_hi == INF
        else 0.5 * (seg.z_lo + seg.z_hi)
        for seg in m.segments
    ]
    z_samples += sorted(
        {b for p in m.segments + m.omega_profile for b in (p.z_lo, p.z_hi) if math.isfinite(b)}
    )
    rho_samples = [0.5, 2.0, 0.5 * (R1 + R2), R2 + 5.0]
    return z_samples, np.array([(rho, z) for rho in rho_samples for z in z_samples])


@pytest.mark.parametrize(
    "diagram, transitions", [(figure2_diagram(), True), (no_corner_diagram(), False)]
)
def test_frame_factors_match_per_point_reference(diagram, transitions):
    m = build_model_map(diagram)
    R1, R2 = m.blend_radii
    z_samples, pts = frame_sample_points(m)
    A_ref = [reference_piece_value(m.segments, z) for z in z_samples]
    assert np.array_equal(modelmap._profile_at(m.segments, np.array(z_samples)), A_ref)
    assert np.array_equal(fields_at(m, pts)[3], reference_omega(m, pts))
    # the fields the tension kernel reads: rank-one sums over the frame
    # A(z) where chi = 0, stacked products over the blended frame where
    # chi > 0
    F, Finv, f, _ = modelmap._point_fields(m, pts[:, 0], pts[:, 1])
    d = slot_weights(m, pts[:, 0], pts[:, 1])

    chis = []
    for k, (rho, z) in enumerate(pts):
        A = A_ref[k % len(z_samples)]
        chi = modelmap._smoothstep((math.hypot(rho, z - m.z0) - R1) / (R2 - R1))
        M_ref = A + chi * (np.asarray(m.far_frame, dtype=float) - A)
        d_ref = slot_weights(m, np.array([rho]), np.array([z]))[0]
        assert np.array_equal(d[k], d_ref)
        F_ref = modelmap._congruence(np.linalg.inv(M_ref), d_ref)
        Finv_ref = modelmap._congruence(M_ref.T, 1.0 / d_ref)
        if chi > 0.0:
            assert np.array_equal(F[k], F_ref)
            assert np.array_equal(Finv[k], Finv_ref)
        else:
            np.testing.assert_allclose(F[k], F_ref, rtol=1e-12, atol=0.0)
            np.testing.assert_allclose(Finv[k], Finv_ref, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(f[k], np.linalg.det(F_ref), rtol=1e-12)
        chis.append(chi)
    # the batch covers plateaus, transition windows (figure 2 only), the
    # blend annulus and the far region
    assert any(not seg.constant for seg in m.segments) == transitions
    assert {chi == 0.0 for chi in chis} == {True, False}
    assert any(0.0 < chi < 1.0 for chi in chis) and 1.0 in chis


@pytest.mark.parametrize("diagram", [figure2_diagram(), no_corner_diagram()])
def test_tension_field_matches_reference_point_stage(monkeypatch, diagram):
    # the grid covers plateaus, transition windows, the blend annulus and
    # the far region; sharing chi and the distinct z values between the
    # frame factors and omega must not move tau by one bit
    m = build_model_map(diagram)
    args = (m, 0.5, 30.0, -25.0, 35.0)
    got = tension_field(*args)
    monkeypatch.setattr(modelmap, "_point_fields", reference_point_fields)
    for a, b in zip(got, tension_field(*args)):
        assert np.array_equal(a, b, equal_nan=True)


@pytest.mark.parametrize(
    "diagram, h, grid",
    [(figure2_diagram(), 0.5, (30.0, -25.0, 35.0)), (parse(PAPER_DIAGRAM.read_text()), 0.1, None)],
    ids=["figure2-blended", "paper-verifier-grid"],
)
def test_point_stage_on_grid_axes_matches_full_mesh(diagram, h, grid):
    # a column of rho and a row of z give the fields of the full mesh of
    # their points bit for bit, with the grid level's z stage (and its
    # endpoint table) and without
    m = build_model_map(diagram)
    rho, z = modelmap._grid_axes(h, *(grid or verifier_grid(m)[1]))
    R, Z = np.meshgrid(rho, z, indexing="ij")
    want = modelmap._point_fields(m, R, Z)
    for level in (modelmap._z_stage(m, z), None):
        assert_same_bits(modelmap._point_fields(m, rho[:, None], z[None, :], level), want)
    # the figure-2 grid crosses the radial blend, the paper's lies inside it
    chi = modelmap._blend_weight(m, R, Z)
    assert np.any(chi == 0.0) and np.any(chi > 0.0) == (grid is not None)


def test_verifier_grid_takes_rho_per_row_and_z_per_column(monkeypatch):
    # every strip hands the point stage and the distance a column of rho
    # and a row of z, so 2 log rho runs once per grid row, the z-gap to
    # the axis rods once per grid column, and the rod endpoints' logarithm
    # once per grid row and distinct |z - a|, in one table per strip; no
    # endpoint logarithm is taken per point
    m = build_model_map(parse(PAPER_DIAGRAM.read_text()))
    h, grid = 0.1, verifier_grid(m)[1]
    rho, z = modelmap._grid_axes(h, *grid)
    logs, ends, tables, gaps = [], [], [], []
    log_rho2, endpoint_log = modelmap._log_rho2, modelmap._endpoint_log
    endpoint_table, axis_distance = modelmap._endpoint_table, modelmap._axis_distance

    def logging(r):
        logs.append(r.shape)
        return log_rho2(r)

    def ending(a, r, zz):
        ends.append((r.shape, zz.shape))
        return endpoint_log(a, r, zz)

    def tabling(r, abs_dz, lr2):
        tables.append((r.shape, abs_dz))
        return endpoint_table(r, abs_dz, lr2)

    def gapping(mm, r, zz):
        gaps.append((r.shape, zz.shape))
        return axis_distance(mm, r, zz)

    monkeypatch.setattr(modelmap, "_log_rho2", logging)
    monkeypatch.setattr(modelmap, "_endpoint_log", ending)
    monkeypatch.setattr(modelmap, "_endpoint_table", tabling)
    monkeypatch.setattr(modelmap, "_axis_distance", gapping)
    tau = tension_field(m, h, *grid)[2]
    strips = -(-tau.shape[0] // modelmap.STRIP_ROWS)
    assert strips > 1 and len(logs) == len(tables) == len(gaps) == strips and not ends
    assert all(cols == 1 for _, cols in logs) and sum(rows for rows, _ in logs) == rho.size
    a = np.array(sorted({a for t in m.terms for term in t for a in term[1:]}))
    abs_dz = np.unique(np.abs(z - a[:, None]))
    assert 0 < abs_dz.size < z.size * a.size
    assert all(r == (r[0], 1) and np.array_equal(d, abs_dz) for r, d in tables)
    assert all(r == (r[0], 1) and zz == (1, z.size - 4) for r, zz in gaps)
    assert sum(r[0] for r, _ in gaps) == tau.shape[0]


@pytest.mark.parametrize(
    "diagram, h, grid",
    [
        (figure2_diagram(), 0.5, (30.0, -25.0, 35.0)),
        (no_corner_diagram(), 0.5, (30.0, -25.0, 35.0)),
        (parse(PAPER_DIAGRAM.read_text()), 0.1, None),
        (rank_two_counterexample(), 0.5, (30.0, -25.0, 35.0)),
        (rank_two_counterexample(), 0.1, None),
        (rank_four_diagram(), 0.5, (30.0, -25.0, 35.0)),
        (rank_four_diagram(), 0.1, None),
    ],
    ids=[
        "figure2", "no-corner", "paper-verifier-grid", "rank-two", "rank-two-verifier-grid",
        "rank-four", "rank-four-verifier-grid",
    ],
)
def test_tension_field_matches_reference_stencil(monkeypatch, diagram, h, grid):
    # det F from the frame factors and the entry planes after the flux H
    # change the operation order, so tau may move at round-off level only
    m = build_model_map(diagram)
    args = (m, h) + (grid or verifier_grid(m)[1])
    got = tension_field(*args)
    monkeypatch.setattr(modelmap, "_point_fields", reference_kernel_point_fields)
    monkeypatch.setattr(modelmap, "_tension_stencil", reference_tension_stencil)
    want = tension_field(*args)
    assert np.array_equal(got[5], want[5])
    assert got[5].any()
    for a, b in zip(got[:5], want[:5]):
        np.testing.assert_allclose(a, b, rtol=1e-10, atol=0.0, equal_nan=True)


def assert_same_bits(got, want):
    """Equal arrays, NaN where NaN, and bit for bit (signed zeros too:
    the CSV dump prints -0)."""
    for a, b in zip(got, want):
        assert np.array_equal(a, b, equal_nan=True)
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize(
    "diagram, transform, h, grid",
    [
        (parse(PAPER_DIAGRAM.read_text()), False, 0.1, None),
        (figure2_diagram(), False, 0.5, (30.0, -25.0, 35.0)),
        (rank_four_diagram(), False, 0.1, None),
        (figure2_diagram(), True, 0.5, (30.0, -25.0, 35.0)),
    ],
    ids=["paper-verifier-grid", "figure2-blended", "rank-four-verifier-grid", "transformed"],
)
def test_omega_span_matches_full_span_stencil(monkeypatch, diagram, transform, h, grid):
    # the omega terms are exactly zero outside the span of columns whose
    # patches see w change, so skipping them there moves no bit
    base = build_model_map(diagram)
    m = transformed_map(base, h_matrices(base.diagram.n)[0]) if transform else base
    args = (m, h) + (grid or verifier_grid(base)[1])
    got = tension_field(*args)
    monkeypatch.setattr(modelmap, "_tension_stencil", full_span_tension_stencil)
    want = tension_field(*args)
    assert_same_bits(got, want)
    assert np.nanmax(got[4]) > 0.0


def test_omega_span_matches_full_span_stencil_at_rays_and_probes(monkeypatch):
    m = build_model_map(parse(PAPER_DIAGRAM.read_text()))
    lo, hi = modelbuild._finite_extent(m.diagram)
    _, _, rays = modelmap._decay_rays(m)
    probes = modelmap._convergence_probes(m, 0.05, lo, hi, max(hi - lo, 1.0))
    points = rays + probes
    got = [modelmap._tension_at(m, points, h) for h in (0.05, 0.025)]
    monkeypatch.setattr(modelmap, "_tension_stencil", full_span_tension_stencil)
    for h, parts in zip((0.05, 0.025), got):
        assert_same_bits(parts, modelmap._tension_at(m, points, h))
    assert np.all(got[0][2][: len(rays)] > 0.0)  # the rays run through the omega wedge


def test_omega_terms_only_on_the_span(monkeypatch):
    # on the paper's verifier grid chi = 0, so w depends on z alone and
    # every strip has the span of the whole grid
    m = build_model_map(parse(PAPER_DIAGRAM.read_text()))
    h, grid = 0.1, verifier_grid(m)[1]
    rho, z = modelmap._grid_axes(h, *grid)
    R, Z = np.meshgrid(rho, z, indexing="ij")
    span = modelmap._omega_span(fields_at(m, np.stack([R, Z], axis=-1))[3])
    columns = []
    divergence = modelmap._divergence

    def counting(v_rho, v_z, rho, h):
        if v_rho.ndim == 2:  # div K, one plane per entry; div H is stacked
            columns.append(v_rho.shape[1])
        return divergence(v_rho, v_z, rho, h)

    monkeypatch.setattr(modelmap, "_divergence", counting)
    _, _, tau, tau_f, tau_w, mask = tension_field(m, h, *grid)
    width = span.stop - span.start
    assert 0 < width < 0.2 * tau.shape[1]
    assert columns and max(columns) <= width
    outside = np.ones(tau.shape[1], dtype=bool)
    outside[span] = False
    kept = mask & outside
    assert kept.any()
    assert np.all(tau_w[kept] == 0.0)
    assert np.array_equal(tau[kept], tau_f[kept])
    assert np.nanmax(tau_w[:, span]) > 0.0


def axis_rod_intervals(m):
    return [m.diagram.rods[i].z for i in m.diagram.axis_indices()]


def per_segment_distance(m, points):
    """Distance to the axis set as the least hypot over the axis rods."""
    pts = np.asarray(points, dtype=float)
    rho, z = pts[..., 0], pts[..., 1]
    best = np.full(rho.shape, np.inf)
    for z_lo, z_hi in axis_rod_intervals(m):
        dz = np.maximum(np.maximum(z_lo - z, z - z_hi), 0.0)
        np.minimum(best, np.hypot(rho, dz), out=best)
    return best


def test_distance_to_axis_matches_per_segment_hypot():
    # one hypot of the least z-gap; hypot is monotone in |dz|, so this is
    # the least per-segment hypot bit for bit
    m = build_model_map(parse(PAPER_DIAGRAM.read_text()))
    for h in (0.05, 0.025):  # verify_tension's two grid levels at its default h
        rho, z = modelmap._grid_axes(h, *verifier_grid(m)[1])
        R, Z = np.meshgrid(rho, z, indexing="ij")
        pts = np.stack([R, Z], axis=-1)
        assert np.array_equal(axis_distance(m, pts), per_segment_distance(m, pts))
    rng = np.random.default_rng(55)
    lo, hi = modelbuild._finite_extent(m.diagram)
    rho = np.concatenate(
        [np.zeros(2000), rng.uniform(0.0, 1e-6, 2000), rng.uniform(0.0, 50.0, 6000)]
    )
    z = rng.uniform(lo - 1e3, hi + 1e3, rho.size)
    z[:3000] = rng.choice([lo, hi, lo - 1e8, hi + 1e8, *(b for s in axis_rod_intervals(m) for b in s
                                                         if math.isfinite(b))], 3000)
    pts = np.stack([rho, z], axis=-1)
    got = axis_distance(m, pts)
    assert np.array_equal(got, per_segment_distance(m, pts))
    # points on the end rods and beyond lie on the axis set
    assert np.any(got == 0.0) and np.all(np.isfinite(got))


@pytest.mark.parametrize(
    "h_matrix",
    [None, [[1, 1, 0], [0, 1, 0], [1, 1, 1]], [[0, 1, 0], [1, 0, 0], [0, 0, 1]],
     [[1, 1, 0], [0, 2, 0], [0, 0, 1]]],
    ids=["base", "det-1", "det-minus-1", "det-2"],
)
def test_det_f_from_frame_factors(h_matrix):
    # points with rho >= 0.5 on plateaus, in transitions, in the blend
    # annulus and past it; det(h) = -1 and 2 exercise the det(h) factor
    base = build_model_map(figure2_diagram())
    m = base if h_matrix is None else transformed_map(base, h_matrix)
    _, pts = frame_sample_points(base)
    chi = modelmap._blend_weight(base, *pts.T)
    assert any(0.0 < c < 1.0 for c in chi) and 1.0 in chi
    np.testing.assert_allclose(modelmap._point_fields(m, *pts.T)[2], det_f(m, pts), rtol=1e-12)


def h_matrices(n):
    """An integer change of coordinates of each kind in rank n: det 1
    (upper bidiagonal), det -1 (the first two axes swapped) and det 2."""
    swap = np.eye(n)
    swap[[0, 1]] = swap[[1, 0]]
    det_two = np.eye(n)
    det_two[1, 1], det_two[0, 1] = 2.0, 1.0
    return [np.eye(n) + np.eye(n, k=1), swap, det_two]


def transformed_map(m, h):
    """The model map pushed through the change of coordinates h, F ->
    h F h^T and omega -> h omega, by moving its data: every frame M (the
    far frame too) becomes h^-T M and every twist potential c becomes h c,
    the far ones with the end plateaus.  Plateau pieces keep M0 is M1."""
    h = np.asarray(h, dtype=float)
    h_inv_t = np.linalg.inv(h).T

    def frame(M):
        return tuple(map(tuple, (h_inv_t @ M).tolist()))

    def moved(pieces, act):
        out = []
        for p in pieces:
            M0 = act(p.M0)
            out.append(p._replace(M0=M0, M1=M0 if p.M1 is p.M0 else act(p.M1)))
        return tuple(out)

    return m._replace(
        segments=moved(m.segments, frame),
        far_frame=frame(m.far_frame),
        omega_profile=moved(m.omega_profile, lambda c: tuple((h @ c).tolist())),
    )


@pytest.mark.parametrize(
    "diagram", [rank_two_counterexample(), figure2_diagram(), rank_four_diagram()],
    ids=["n2", "n3", "n4"],
)
@pytest.mark.parametrize("kind", [0, 1, 2], ids=["det-1", "det-minus-1", "det-2"])
def test_transformed_map_moves_fields_by_h(diagram, kind):
    # F -> h F h^T and omega -> h omega at plateau, ramp, blend and far
    # points, to round-off of each point's largest entry
    base = build_model_map(diagram)
    h = h_matrices(base.diagram.n)[kind]
    m = transformed_map(base, h)
    _, pts = frame_sample_points(base)
    chi = modelmap._blend_weight(base, *pts.T)
    ramp = np.zeros(len(pts), dtype=bool)
    for seg in base.segments:
        if not seg.constant:
            ramp |= (seg.z_lo < pts[:, 1]) & (pts[:, 1] < seg.z_hi)
    assert np.any(ramp & (chi == 0.0)) and np.any(~ramp & (chi == 0.0))
    assert np.any((0.0 < chi) & (chi < 1.0)) and np.any(chi == 1.0)
    pairs = zip(base.segments + base.omega_profile, m.segments + m.omega_profile)
    assert all((p.M0 is p.M1) == (q.M0 is q.M1) for p, q in pairs)
    (F, _, _, w), (F_base, _, _, w_base) = fields_at(m, pts), fields_at(base, pts)
    for got, want in [(F, h @ F_base @ h.T), (w, w_base @ h.T)]:
        axes = tuple(range(1, want.ndim))
        scale = np.abs(want).max(axis=axes, keepdims=True)
        assert np.all(np.abs(got - want) <= 1e-13 * scale)


@pytest.mark.parametrize(
    "diagram", [rank_two_counterexample(), figure2_diagram(), rank_four_diagram()],
    ids=["n2", "n3", "n4"],
)
@pytest.mark.parametrize("kind", [None, 0, 1, 2], ids=["base", "det-1", "det-minus-1", "det-2"])
def test_rank_one_fields_match_stacked_products(diagram, kind):
    # where chi = 0, F and F^-1 are sums over the z stage's rank-one
    # factors; they must agree with the stacked products of the frame
    # factors to round-off (rtol 1e-12), and be exactly symmetric
    base = build_model_map(diagram)
    m = base if kind is None else transformed_map(base, h_matrices(base.diagram.n)[kind])
    _, pts = frame_sample_points(base)
    pts = pts[pts[:, 0] <= 2.0]  # rho = 0.5 and 2 on every frame piece
    assert not np.any(modelmap._blend_weight(base, *pts.T))
    F, Finv, _, _ = modelmap._point_fields(m, *pts.T)
    M, Minv, d, _ = reference_frame_factors(m, pts)
    np.testing.assert_allclose(F, modelmap._congruence(Minv, d), rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(
        Finv, modelmap._congruence(np.swapaxes(M, -1, -2), 1.0 / d), rtol=1e-12, atol=0.0
    )
    for X in (F, Finv):
        assert np.array_equal(X, np.swapaxes(X, -1, -2))


def test_tension_field_stacks_products_only_where_blended(monkeypatch):
    # F and F^-1 are stacked products only at points with chi > 0, one
    # call each per strip that has any; elsewhere they are rank-one sums
    m = build_model_map(figure2_diagram())
    h, rho_max, z_lo, z_hi = 0.5, 30.0, -25.0, 35.0
    stacked = []
    real = modelmap._congruence

    def counting(X, d):
        stacked.append(X.shape[:-2])
        return real(X, d)

    monkeypatch.setattr(modelmap, "_congruence", counting)
    tension_field(m, h, rho_max, z_lo, z_hi)
    rho, z = modelmap._grid_axes(h, rho_max, z_lo, z_hi)
    blended = np.count_nonzero(modelmap._blend_weight(m, rho[:, None], z[None, :]) > 0.0)
    assert 0 < blended < rho.size * z.size
    assert all(len(shape) == 1 for shape in stacked)
    assert sum(shape[0] for shape in stacked) == 2 * blended


def test_tension_field_invariant_under_unimodular_transform():
    # the grid level's z stage is transformed with the map: the whole
    # figure-2 field, blend annulus included, keeps its tension
    m = build_model_map(figure2_diagram())
    args = (0.5, 30.0, -25.0, 35.0)
    want = tension_field(m, *args)
    got = tension_field(transformed_map(m, h_matrices(3)[0]), *args)
    assert np.array_equal(got[5], want[5])
    for a, b in zip(got[2:5], want[2:5]):
        np.testing.assert_allclose(a, b, rtol=1e-8, atol=1e-13, equal_nan=True)


def test_point_stage_computes_blend_weight_once(monkeypatch):
    m = build_model_map(figure2_diagram())
    calls = []
    real = modelmap._blend_weight

    def counting(mm, rho, z):
        calls.append((rho.shape, z.shape))
        return real(mm, rho, z)

    monkeypatch.setattr(modelmap, "_blend_weight", counting)
    rho, z = np.array([[0.5], [20.0], [40.0]]), np.array([[-9.0, 3.0, 30.0]])
    modelmap._point_fields(m, rho, z)
    assert calls == [((3, 1), (1, 3))]
    modelmap._point_fields(transformed_map(m, np.eye(3)), rho, z)
    assert len(calls) == 2


def test_blend_weight_skips_batches_inside_r1(monkeypatch):
    # chi is the smoothstep of (r - R1) / (R2 - R1) bit for bit on
    # batches reaching to just inside R1, to R1 and one ulp past it, and
    # only the last has chi > 0; a batch inside R1 by more than rounding
    # gets its zeros without the smoothstep
    m = build_model_map(parse(PAPER_DIAGRAM.read_text()))
    R1, R2 = m.blend_radii
    smoothstep = modelmap._smoothstep
    calls = []

    def counting(t):
        calls.append(t.shape)
        return smoothstep(t)

    monkeypatch.setattr(modelmap, "_smoothstep", counting)
    z = np.full(3, m.z0)  # the farthest point of a batch is its last
    reaches = [0.5 * R1, np.nextafter(R1, 0.0), R1, np.nextafter(R1, INF)]
    for reach in reaches:
        rho = np.array([0.0, 0.5 * reach, reach])
        chi = modelmap._blend_weight(m, rho, z)
        want = smoothstep((np.hypot(rho, z - m.z0) - R1) / (R2 - R1))
        assert chi.tobytes() == want.tobytes()
        assert np.any(chi > 0.0) == (reach > R1)
    assert calls == [(3,)] * 3  # every batch but the first
    # a grid's column of rho and row of z bound its reach the same way
    chi = modelmap._blend_weight(m, np.array([[1.0], [0.4 * R1]]), m.z0 + np.array([[-0.5 * R1, 0.5 * R1]]))
    assert chi.shape == (2, 2) and not chi.any() and len(calls) == 3


def test_tension_field_inverts_frames_once_per_z(monkeypatch):
    # the frame curve depends on z alone inside the radial blend, so one
    # tension_field call inverts it once per distinct z of its grid, for
    # all strips together, and per point only where the blend weight is
    # positive
    m = build_model_map(figure2_diagram())
    h, rho_max, z_lo, z_hi = 0.5, 30.0, -25.0, 35.0
    inverted = []
    real_inv = np.linalg.inv

    def counting_inv(a):
        inverted.append(int(np.prod(np.shape(a)[:-2])))
        return real_inv(a)

    monkeypatch.setattr(np.linalg, "inv", counting_inv)
    T = tension_field(m, h, rho_max, z_lo, z_hi)[2]
    monkeypatch.undo()

    rho = (np.arange(int(round(rho_max / h))) + 1.0) * h
    z = z_lo + np.arange(int(round((z_hi - z_lo) / h)) + 1) * h
    blended = np.count_nonzero(np.hypot(rho[:, None], z[None, :] - m.z0) > m.blend_radii[0])
    assert 0 < blended < rho.size * z.size
    assert T.shape[0] > modelmap.STRIP_ROWS  # more than one strip
    assert sum(inverted) <= z.size + blended


def former_omega(m, rho, z, level, at, chi, out):
    """modelmap._omega as it was before the z stage carried the near-field
    profile: the profile evaluated on the level's whole z axis at every
    call, so once per strip of a grid."""
    near = modelmap._profile_at(m.omega_profile, level.z)[np.broadcast_to(at, chi.shape)]
    blend = chi > 0.0
    if blend.any():
        ends = m.omega_profile[-1].M0, m.omega_profile[0].M0
        c_north, c_south = (np.asarray(c, dtype=float) for c in ends)
        theta = np.arctan2(rho[blend], z[blend] - m.z0)
        s_theta = modelmap._smoothstep((theta - modelmap.EPSILON) / (math.pi - 2.0 * modelmap.EPSILON))
        far = c_north + s_theta[:, None] * (c_south - c_north)
        c = chi[blend][:, None]
        near[blend] = (1.0 - c) * near[blend] + c * far
    out[...] = near
    return out


def test_omega_profile_evaluated_once_per_grid_level(monkeypatch):
    # omega's near field depends on z alone: one profile evaluation per
    # tension_field call, for all its strips, and not one bit of tau moves
    m = build_model_map(parse(PAPER_DIAGRAM.read_text()))
    args = (m, 0.1) + verifier_grid(m)[1]
    profiled = []
    real_profile_at = modelmap._profile_at

    def counting(pieces, z):
        if pieces is m.omega_profile:
            profiled.append(z.size)
        return real_profile_at(pieces, z)

    monkeypatch.setattr(modelmap, "_profile_at", counting)
    got = tension_field(*args)
    assert got[2].shape[0] > modelmap.STRIP_ROWS  # more than one strip
    assert len(profiled) == 1
    monkeypatch.undo()
    monkeypatch.setattr(modelmap, "_omega", former_omega)
    for a, b in zip(got, tension_field(*args)):
        assert np.array_equal(a, b, equal_nan=True)


def test_tension_field_memory_bounded_by_strip():
    # beyond the arrays it returns, tension_field holds one strip, so its
    # working memory must not grow with the number of rho rows
    m = build_model_map(figure2_diagram())

    def working_bytes(rho_max):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = tension_field(m, 0.05, rho_max, -2.0, 10.0)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        return peak - sum(a.nbytes for a in out)

    assert working_bytes(8.0) < 1.25 * working_bytes(4.0)


def test_tension_invariant_under_unimodular_transform():
    m = build_model_map(figure2_diagram())
    h_mat = np.array([[1, 1, 0], [0, 1, 0], [1, 1, 1]])  # det = 1
    tm = transformed_map(m, h_mat)
    for rho, z in [(1.0, 2.7), (2.0, -4.0), (40.0, 10.0), (0.9, 6.6)]:
        a = tension_norm(m, rho, z, 0.02)
        b = tension_norm(tm, rho, z, 0.02)
        assert b == pytest.approx(a, rel=1e-8, abs=1e-13)


# ----------------------------------------------------------------------
# the verifier


def test_verify_tension_report_fig2():
    m = build_model_map(figure2_diagram())
    rep = verify_tension(m, h=0.1)
    out = rep.to_json_dict()
    assert out["decay"]["pass"]
    assert out["decay"]["mean_slope"] <= -2.3
    assert all(np.isfinite(a["sup_coarse"]) for a in out["annuli"])
    # byte-stable JSON structure
    assert set(out) == {
        "h",
        "excision_radius",
        "domain",
        "annuli",
        "decay",
        "convergence",
        "sup_bounded_pass",
        "decay_pass",
        "passed",
    }


def test_paper_map_builder_parameters():
    # the builder's free choices on the paper diagram (finite rods in
    # [0, 8], so width 8 and z0 = 4): the end ramps 0.6 to 1.6 widths past
    # the outer corners, the horizon ramps 0.2 of each horizon in from its
    # ends, and the radial blend from R1 = 4 + 2.5 * 8 to R2 = 4 + 4.5 * 8
    m = build_model_map(parse(PAPER_DIAGRAM.read_text()))
    assert m.blend_radii == (24.0, 40.0)
    ramps = [(seg.z_lo, seg.z_hi, seg.held_col) for seg in m.segments if seg.M0 != seg.M1]
    assert ramps == pytest.approx([(-12.8, -4.8, 1), (2.0, 3.5, None), (6.0, 7.5, None)])
    # the north end ramp joins two equal frames, so it is a constant piece
    north = m.segments[-2]
    assert (north.z_lo, north.z_hi) == pytest.approx((12.8, 20.8))
    assert north.held_col == 0 and north.M0 == north.M1
    # omega ramps over the middle half of each horizon
    omega_ramps = [(seg.z_lo, seg.z_hi) for seg in m.omega_profile if seg.M0 != seg.M1]
    assert omega_ramps == [(2.125, 3.375), (6.125, 7.375)]


def test_multi_corner_component_block_assembly():
    # two corners in one component: the frame curve transitions along the
    # middle rod holding that rod's structure column, and the tension near
    # the axis inside the transition stays bounded
    d = RodDiagram(
        3,
        "half_plane",
        [
            Rod.axis((1, 0, 0), z=(-INF, 0.0), potential=(0.0, 0.0, 0.0)),
            Rod.axis((0, 1, 0), z=(0.0, 2.0), potential=(0.0, 0.0, 0.0)),
            Rod.axis((1, 1, 1), z=(2.0, 4.0), potential=(0.0, 0.0, 0.0)),
            Rod.horizon(z=(4.0, 6.5)),
            Rod.axis((0, 0, 1), z=(6.5, INF), potential=(0.5, 0.0, 0.0)),
        ],
    )
    m = build_model_map(d)
    # the ramp along rod 1 holds rod 1's structure column at both ends
    (ramp,) = [seg for seg in m.segments if 0.0 < seg.z_lo < seg.z_hi < 2.0]
    col = list(d.rods[1].structure.v)
    assert not ramp.constant
    assert [row[ramp.held_col] for row in ramp.M0] == col == [row[ramp.held_col] for row in ramp.M1]
    # its window keeps 0.3 of the rod's span clear at each end
    assert (ramp.z_lo, ramp.z_hi) == pytest.approx((0.6, 1.4))
    for idx, zm in [(0, -1.0), (1, 1.0), (2, 3.0), (4, 8.0)]:
        F = fields_at(m, np.array([[1e-6, zm]]))[0][0]
        w, vecs = np.linalg.eigh(F)
        s = np.array(d.rods[idx].structure.v, dtype=float)
        cosine = abs(vecs[:, 0] @ s) / (np.linalg.norm(vecs[:, 0]) * np.linalg.norm(s))
        assert cosine > 1.0 - 1e-8
    taus = [tension_norm(m, rho, 1.0, rho / 32) for rho in (0.4, 0.2, 0.1)]
    assert max(taus) / min(taus) < 1.5  # bounded, no blow-up toward the axis


def test_rank_two_counterexample_geometry():
    # the 5-dimensional static counterexample with geometry attached:
    # parallel ends, so the slot-0 potential carries all three rods
    d = rank_two_counterexample()
    m = build_model_map(d)
    for idx, zm in [(0, -1.0), (2, 2.25), (4, 6.0)]:
        F = fields_at(m, np.array([[1e-6, zm]]))[0][0]
        w, vecs = np.linalg.eigh(F)
        s = np.array(d.rods[idx].structure.v, dtype=float)
        cosine = abs(vecs[:, 0] @ s) / (np.linalg.norm(vecs[:, 0]) * np.linalg.norm(s))
        assert cosine > 1.0 - 1e-8
    taus = [
        tension_norm(m, r * math.sin(1.3), m.z0 + r * math.cos(1.3), 0.05)
        for r in (40.0, 80.0, 160.0)
    ]
    assert taus[0] > taus[1] > taus[2]
    slope = math.log(taus[2] / taus[0]) / math.log(4.0)
    assert slope <= -2.3


def test_no_horizon_diagram_with_parallel_ends():
    d = RodDiagram(
        3,
        "half_plane",
        [
            Rod.axis((1, 0, 0), z=(-INF, 0.0), potential=(0.0, 0.0, 0.0)),
            Rod.axis((0, 1, 0), z=(0.0, 2.0), potential=(0.0, 0.0, 0.0)),
            Rod.axis((1, 0, 0), z=(2.0, INF), potential=(0.0, 0.0, 0.0)),
        ],
    )
    m = build_model_map(d)
    for idx, zm in [(0, -1.0), (1, 1.0), (2, 3.0)]:
        F = fields_at(m, np.array([[1e-6, zm]]))[0][0]
        w, vecs = np.linalg.eigh(F)
        s = np.array(d.rods[idx].structure.v, dtype=float)
        cosine = abs(vecs[:, 0] @ s) / (np.linalg.norm(vecs[:, 0]) * np.linalg.norm(s))
        assert cosine > 1.0 - 1e-8
    assert tension_norm(m, 30.0, 1.0, 0.05) < 1e-6


def test_no_horizon_parity_conflict_reported():
    # independent ends joined by one odd-length component: the forced slot
    # alternation cannot match the asymptotic region
    d = RodDiagram(
        3,
        "half_plane",
        [
            Rod.axis((1, 0, 0), z=(-INF, 0.0), potential=(0.0, 0.0, 0.0)),
            Rod.axis((0, 1, 0), z=(0.0, 2.0), potential=(0.0, 0.0, 0.0)),
            Rod.axis((0, 0, 1), z=(2.0, INF), potential=(0.0, 0.0, 0.0)),
        ],
    )
    with pytest.raises(ModelMapError):
        build_model_map(d)


def test_verify_tension_harmonic_configuration():
    # exactly harmonic map: the measured far field and annulus sups are
    # pure discretization noise, which shrinks under refinement and falls
    # off faster than the required decay rate
    m = build_model_map(no_corner_diagram())
    rep = verify_tension(m, h=0.1)
    assert rep.decay_pass
    assert rep.decay["max_tau"] < 1e-3
    for a in rep.annuli:
        assert a["sup_fine"] < a["sup_coarse"]
    assert 1.8 <= rep.convergence["order"] <= 2.2


def test_s2_end_variant():
    # parallel semi-infinite structures: the end is S^2 x T^2-like and the
    # slot-0 potential degenerates as rho^2 at infinity
    m = build_model_map(no_corner_diagram())
    rs = np.array([50.0, 100.0, 200.0])
    pts = np.column_stack([rs, np.full_like(rs, m.z0)])
    f = det_f(m, pts)
    slope = np.polyfit(np.log(rs), np.log(f), 1)[0]
    assert abs(slope - 2.0) < 0.1


def test_paper_map_sup_ratios_fail_at_h_0_1():
    # the paper map's two inner annulus sups grow by 1.249 and 1.266 from
    # h = 0.1 to h/2, at or above the limit of 1.1, so the sups fail there
    # (at h = 0.05 they grow by 1.062 and 1.072 and pass)
    rep = verify_tension(build_model_map(parse(PAPER_DIAGRAM.read_text())), h=0.1)
    ratios = [a["ratio"] for a in rep.annuli]
    assert ratios[:2] == pytest.approx([1.249, 1.266], abs=1e-3)
    assert all(r >= modelmap.SUP_RATIO_LIMIT for r in ratios[:2])
    assert [a["pass"] for a in rep.annuli] == [False, False, True]
    assert (rep.sup_bounded_pass, rep.decay_pass, rep.passed) == (False, True, False)


def power_law_rays(s, scale=1.0):
    """Radii, angles and taus of 7 decay rays over one decade from r = 60,
    24 points each, on which tau = scale * r**s."""
    radii = 60.0 * np.power(10.0, np.linspace(0.0, 1.0, 24))
    angles = np.linspace(0.45, math.pi - 0.45, 7)
    return radii, angles, np.tile(scale * radii**s, 7)


@pytest.mark.parametrize("s, passed", [(-2.25, False), (-2.35, True)])
def test_decay_fit_verdict_on_either_side_of_the_slope_limit(s, passed):
    # the decay limit is a slope of -2.3
    fit = modelmap._decay_fit(*power_law_rays(s))
    assert fit["mean_slope"] == pytest.approx(s, abs=1e-9)
    assert fit["below_noise_floor"] is False
    assert fit["pass"] is passed


def test_decay_fit_passes_tension_below_the_noise_floor():
    # a far field below 1e-11 is noise: no slope is fitted, and it passes
    fit = modelmap._decay_fit(*power_law_rays(-1.0, scale=1e-13))
    assert fit["max_tau"] < 1e-11
    assert (fit["mean_slope"], fit["below_noise_floor"], fit["pass"]) == (None, True, True)
    # one of about 1e-9 lies above the floor and gets its slope fitted
    fit = modelmap._decay_fit(*power_law_rays(-2.35, scale=1.5e-5))
    assert 5e-10 < fit["max_tau"] < 2e-9
    assert fit["below_noise_floor"] is False
    assert fit["mean_slope"] == pytest.approx(-2.35, abs=1e-9)


def test_paper_map_decay_rays():
    # 7 rays from 0.2 + 0.25 radians off the north axis to as far off the
    # south one, each with 24 radii over the decade from 1.5 R2 = 60
    radii, angles, points = modelmap._decay_rays(build_model_map(parse(PAPER_DIAGRAM.read_text())))
    assert angles == pytest.approx(np.linspace(0.45, math.pi - 0.45, 7), abs=1e-12)
    assert radii == pytest.approx(np.geomspace(60.0, 600.0, 24), rel=1e-12)
    assert len(points) == 7 * 24


def test_paper_map_far_omega_is_the_north_value_near_the_north_axis():
    # at r = 100 from z0 the radial blend is complete (R2 = 40), so omega is
    # its far value: exactly the north end's at polar angle 0.15, inside the
    # 0.2 radian cap, and on its way to the south end's at 0.25
    m = build_model_map(parse(PAPER_DIAGRAM.read_text()))
    points = [[100.0 * math.sin(t), m.z0 + 100.0 * math.cos(t)] for t in (0.15, 0.25)]
    omega = fields_at(m, points)[3]
    assert omega[0].tolist() == [1.0, 0.5, 0.0]
    assert omega[1].tolist() != [1.0, 0.5, 0.0]


def test_spaced_by_rejects_a_relative_step_error_of_2e_4():
    assert modelmap._spaced_by(np.array([1.0, 1.1, 1.2]), 0.1, 0)
    assert not modelmap._spaced_by(np.array([1.0, 1.1, 1.20002]), 0.1, 0)


def test_csv_dump(tmp_path):
    m = build_model_map(no_corner_diagram())
    rep = verify_tension(m, h=0.2)
    path = tmp_path / "field.csv"
    modelmap.dump_csv(m, rep, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "rho,z,tau,tau_f,tau_omega"
    assert len(lines) > 100


def test_csv_dump_matches_tension_field(tmp_path):
    m = build_model_map(figure2_diagram())
    rep = verify_tension(m, h=0.25)
    path = tmp_path / "field.csv"
    modelmap.dump_csv(m, rep, path)
    d = rep.domain
    field = tension_field(
        m, rep.h, d["rho_max"], d["z_lo"], d["z_hi"], excision=rep.excision_radius
    )
    want = io.StringIO()
    want.write("rho,z,tau,tau_f,tau_omega\n")
    for r, zz, t, tf, tw in np.nditer(field[:5]):
        if np.isnan(t):
            continue
        want.write(
            f"{float(r):.9g},{float(zz):.9g},{float(t):.12g},{float(tf):.12g},{float(tw):.12g}\n"
        )
    assert path.read_text() == want.getvalue()


@pytest.mark.parametrize(
    "diagram, h",
    [
        (parse(PAPER_DIAGRAM.read_text()), 0.2),
        (no_corner_diagram(), 0.2),
        (rank_two_counterexample(), 0.2),
        # the grids do not nest: the h grid's last row (h = 0.15) or last
        # column (h = 0.3) lies one h/2 step past the h/2 grid
        (parse(PAPER_DIAGRAM.read_text()), 0.15),
        (parse(PAPER_DIAGRAM.read_text()), 0.3),
    ],
    ids=["paper", "no-corner", "rank-two", "paper-h0.15", "paper-h0.3"],
)
def test_streamed_annuli_match_full_grid_reference(monkeypatch, diagram, h):
    m = build_model_map(diagram)
    want = reference_annuli(m, h)
    # 10**4 rows is more than either grid has
    for strip_rows in (modelmap.STRIP_ROWS, 1, 10**4):
        monkeypatch.setattr(modelmap, "STRIP_ROWS", strip_rows)
        assert verify_tension(m, h=h).annuli == want


def test_verifier_runs_one_point_pass_for_both_grids(monkeypatch):
    # the h grid's points are the h/2 grid's odd rows and even columns, so
    # one verify_tension call evaluates the point stage once per h/2 grid
    # row (plus the h grid's last row where it lies past the h/2 grid) and
    # builds one z stage for both grids
    m = build_model_map(parse(PAPER_DIAGRAM.read_text()))
    h = 0.1
    rows, levels, stages = [], [], []
    point_fields, z_stage = modelmap._point_fields, modelmap._z_stage

    def counting(mm, rho, z, level=None, out=None):
        if level is not None:
            rows.append(rho.shape[0])
        levels.append(level)
        return point_fields(mm, rho, z, level, out)

    def staging(mm, z_axis):
        stages.append(z_axis.size)
        return z_stage(mm, z_axis)

    monkeypatch.setattr(modelmap, "_point_fields", counting)
    monkeypatch.setattr(modelmap, "_z_stage", staging)
    verify_tension(m, h)
    fine_rows = modelmap._grid_axes(h / 2.0, *verifier_grid(m)[1])[0].size
    assert len(rows) > 1 and fine_rows <= sum(rows) <= fine_rows + 1
    grid_levels = [level for level in levels if level is not None]
    assert all(level is grid_levels[0] for level in grid_levels)
    # one z stage for the grids, and one per probe batch (_tension_at)
    assert len(stages) == 1 + levels.count(None)


def test_verify_tension_memory_bounded_by_strip():
    # the verifier reduces each strip to annulus sups and holds no
    # grid-sized array: doubling every finite z doubles the columns of a
    # strip (and quadruples the grid), so the peak must grow about 2x, not 4x
    def doubled(z):
        return tuple(2.0 * t if math.isfinite(t) else t for t in z)

    base = figure2_diagram()
    stretched = RodDiagram(
        base.n,
        "half_plane",
        [
            Rod.axis(r.structure.v, z=doubled(r.z), potential=r.potential) if r.is_axis
            else Rod.horizon(z=doubled(r.z))
            for r in base.rods
        ],
    )

    def peak_bytes(diagram):
        m = build_model_map(diagram)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            verify_tension(m, h=0.1)
            return tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()

    assert peak_bytes(stretched) < 2.3 * peak_bytes(base)
