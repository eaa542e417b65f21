import io
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from rodtopo import modelmap
from rodtopo.errors import ModelMapError
from rodtopo.roddiagram import Rod, RodDiagram, parse
from rodtopo.modelmap import (
    TransformedMap,
    build_model_map,
    potentials,
    tension_field,
    tension_norm,
    verify_tension,
)

from helpers import SINGULAR_BLEND_RUN, SINGULAR_FRAME_RUN, frame_corpus

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


def det_f(m, points):
    return np.linalg.det(m.F(points))


def reference_frame_factors(m, points):
    """Frame factors and det(M^-1) that find chi and the distinct z values
    themselves (one frame per distinct z, one blended frame per point with
    chi > 0)."""
    pts = np.asarray(points, dtype=float)
    rho, z = pts[..., 0], pts[..., 1]
    U, V = m._UV(rho, z)
    z_axis, at = np.unique(z, return_inverse=True)
    at = at.reshape(z.shape)
    A = m.axis_frames(z_axis)
    M = A[at]
    Minv = np.linalg.inv(A)[at]
    det_inv = (1.0 / np.linalg.det(A))[at]
    chi = m._blend_weight(rho, z)
    blend = chi > 0.0
    if blend.any():
        Mb = M[blend]
        Mb += chi[blend][:, None, None] * (m.far_frame - Mb)
        M[blend] = Mb
        Minv[blend] = np.linalg.inv(Mb)
        det_inv[blend] = 1.0 / np.linalg.det(Mb)
    d = np.ones(rho.shape + (m.n,))
    d[..., 0] = np.exp(U)
    d[..., 1] = np.exp(V)
    return M, Minv, d, det_inv


def reference_piece_value(pieces, z):
    """A z-profile at one z: the single piece whose half-open [z_lo, z_hi)
    holds z, and the ramp formula applied to it."""
    (piece,) = [p for p in pieces if p.z_lo <= z < p.z_hi]
    if np.array_equal(piece.M0, piece.M1):
        return piece.M0
    s = modelmap._smoothstep((z - piece.z_lo) / (piece.z_hi - piece.z_lo))
    return piece.M0 + s * (piece.M1 - piece.M0)


def reference_omega(m, points):
    """Twist potentials with the piece of every point looked up on its own."""
    pts = np.asarray(points, dtype=float)
    rho, z = pts[..., 0], pts[..., 1]
    near = np.array([reference_piece_value(m.omega_profile, zz) for zz in z.ravel()])
    near = near.reshape(rho.shape + (m.n,))
    chi = m._blend_weight(rho, z)
    blend = chi > 0.0
    if blend.any():
        c_north, c_south = map(np.asarray, m.omega_far)
        theta = np.arctan2(rho[blend], z[blend] - m.z0)
        s_theta = modelmap._smoothstep((theta - m.epsilon) / (math.pi - 2.0 * m.epsilon))
        far = c_north + s_theta[:, None] * (c_south - c_north)
        c = chi[blend][:, None]
        near[blend] = (1.0 - c) * near[blend] + c * far
    return near


def per_point_outer_sum(X, w):
    """sum_k w_k x_k x_k^T over the rows x_k of X, point by point, in the
    order w_0 o_0 + w_1 o_1 + o_2 + ...  (w_k = 1 for k >= 2)."""
    o = [X[..., k, :, None] * X[..., k, None, :] for k in range(X.shape[-1])]
    total = w[..., 0, None, None] * o[0] + w[..., 1, None, None] * o[1]
    for term in o[2:]:
        total = total + term
    return total


def reference_point_fields(m, points, level=None):
    """Point stage built from the two reference formulas, each with its
    own chi and its own distinct z; a grid level's z stage is ignored.
    Where chi = 0, F and F^-1 are the rank-one sums over the rows of M^-1
    and the columns of M, formed point by point; where chi > 0 they are
    the stacked products."""
    M, Minv, d, det_inv = reference_frame_factors(m, points)
    Mt = np.swapaxes(M, -1, -2)
    F = per_point_outer_sum(Minv, d)
    Finv = per_point_outer_sum(Mt, 1.0 / d)
    pts = np.asarray(points, dtype=float)
    blend = m._blend_weight(pts[..., 0], pts[..., 1]) > 0.0
    F[blend] = modelmap._congruence(Minv[blend], d[blend])
    Finv[blend] = modelmap._congruence(Mt[blend], 1.0 / d[blend])
    return F, Finv, d.prod(-1) * det_inv**2, reference_omega(m, points)


def reference_kernel_point_fields(m, points, level=None):
    """The former point stage: F and F^-1 as stacked products at every
    point, and det F taken per point by np.linalg.det."""
    M, Minv, d, _ = reference_frame_factors(m, points)
    F = modelmap._congruence(Minv, d)
    Finv = modelmap._congruence(np.swapaxes(M, -1, -2), 1.0 / d)
    return F, Finv, np.linalg.det(F), reference_omega(m, points)


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
    lo, hi = modelmap._finite_extent(m)
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
    dist1 = m.distance_to_axis(np.stack([R1, Z1], axis=-1))
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
        got = modelmap._v_pot(a, rho, z, modelmap._log_rho2(rho))
        assert got.tobytes() == direct_v_pot(a, rho, z).tobytes()


def former_u_pot(a, rho, z):
    """log(r_a - (z - a)) with 2 log rho taken inside, once per rod term."""
    dz = z - a
    r = np.hypot(rho, dz)
    with np.errstate(divide="ignore", invalid="ignore"):
        direct = np.log(r - dz)
        safe = 2.0 * np.log(rho) - np.log(r + dz)
    return np.where(dz >= 0, safe, direct)


def test_shared_log_rho_is_bit_identical():
    # _UV takes 2 log rho once for all its rod terms; every term, and so
    # U and V, must come out as they did with one logarithm per term
    rho, dz = np.meshgrid(
        [0.0, 1e-12, 1e-3, 1.0, 1e6], [0.0, 1e-12, -1e-12, 1.0, -1.0, 1e8, -1e8], indexing="ij"
    )
    for a in (0.0, 1.5, -2.25):
        z = a + dz
        got = modelmap._u_pot(a, rho, z, modelmap._log_rho2(rho))
        assert np.array_equal(got, former_u_pot(a, rho, z), equal_nan=True)

    m = build_model_map(figure2_diagram())
    rho, z = np.meshgrid([0.0, 1e-3, 0.5, 2.0, 40.0], np.linspace(-12.0, 20.0, 65), indexing="ij")
    want = []
    for terms in (m.u_terms, m.v_terms):
        acc = np.zeros_like(rho)
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
    for got, ref in zip(m._UV(rho, z), want):
        assert np.array_equal(got, ref, equal_nan=True)


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
        F = m.F(np.array([[1e-6, zm]]))[0]
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
    pts = pts[m.distance_to_axis(pts) > 0.05]
    F = m.F(pts)
    assert np.all(np.isfinite(F))
    eig = np.linalg.eigvalsh(F)
    assert np.all(eig > 0)
    w = m.omega(pts)
    assert np.all(np.isfinite(w))


def test_omega_constant_on_tubes():
    d = figure2_diagram()
    m = build_model_map(d)
    # on the middle rod tube the potential constant is (0.3, 0, 0.1)
    pts = np.array([[0.1, 4.3], [0.2, 5.0], [0.05, 4.9]])
    w = m.omega(pts)
    assert np.allclose(w, [0.3, 0.0, 0.1])
    # far north axis: the north constant
    w = m.omega(np.array([[0.5, 80.0]]))
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
    real = modelmap._bareiss_det

    def spy(rows):
        calls.append(([list(r) for r in rows], real([list(r) for r in rows])))
        return calls[-1][1]

    monkeypatch.setattr(modelmap, "_bareiss_det", spy)
    return calls


def test_certificate_rejects_a_ramp_at_its_exact_zero(monkeypatch):
    # det(I + s (diag(-1, -1, 1) - I)) = (1 - 2s)^2 vanishes at s = 1/2,
    # which the first halving doubles to the corner diag(0, 0, 2)
    calls = det_calls(monkeypatch)
    assert not modelmap._det_keeps_sign(ramp(np.eye(3, dtype=int), np.diag([-1, -1, 1])), 1)
    assert calls[-1] == ([[0, 0, 0], [0, 0, 0], [0, 0, 2]], 0)


def test_certificate_rejects_the_fixture_ramp_at_three_eighths(monkeypatch):
    # the roots 1/3 and (3 - sqrt 5)/2 lie between dyadic points; three
    # halvings reach s = 3/8, where 8 M(3/8) = 5 M0 + 3 M1 has det < 0
    M0 = np.array([[1, 1, -1], [-1, -1, 0], [0, 1, 0]])
    M1 = np.array([[1, 1, 0], [0, 0, 1], [2, 0, 0]])
    calls = det_calls(monkeypatch)
    assert not modelmap._det_keeps_sign(ramp(M0, M1), 1)
    rows, det = calls[-1]
    assert np.array_equal(np.array(rows).T, 5 * M0 + 3 * M1) and det < 0


def test_certificate_subdivides_a_path_that_comes_near_zero(monkeypatch):
    # det(I + s (M1 - I)) = 1 - 4s + 5s^2 > 0 has a negative Bernstein
    # coefficient on [0, 1], so only halving certifies it
    M1 = np.array([[-1, -1, 0], [1, -1, 0], [0, 0, 1]])
    assert modelmap._det_keeps_sign(ramp(np.eye(3, dtype=int), M1), 1)
    monkeypatch.setattr(modelmap, "CERTIFICATE_DEPTH", 0)
    assert not modelmap._det_keeps_sign(ramp(np.eye(3, dtype=int), M1), 1)


def test_certificate_covers_a_plateau_patch():
    # corners (A, A, far, far), given by columns: only chi varies.  A and
    # far are SINGULAR_BLEND_RUN's plateau and far frames, det -1 each
    far = ((2, -1, 2), (1, 1, -1), (1, 0, 0))
    A = ((2, -1, 0), (1, -1, 0), (0, 0, 1))
    assert not modelmap._det_keeps_sign(((A, A), (far, far)), -1)
    B = ((1, 0, 0), (0, 1, 0), (0, 0, -1))  # det(B + chi (far - B)) = 2 chi^3 - 2 chi^2 - 1
    assert modelmap._det_keeps_sign(((B, B), (far, far)), -1)
    assert modelmap._det_keeps_sign(((far, far), (far, far)), -1)


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
    real = modelmap._det_keeps_sign

    def record(corners, sign, level=0):
        ok = real(corners, sign, level)
        if level == 0 and not ok:
            rejected.append(corners)
        return ok

    monkeypatch.setattr(modelmap, "_det_keeps_sign", record)
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
        far = m.far_frame.astype(int).tolist()
        for seg in m.segments:
            P0, P1 = seg.M0.astype(int).tolist(), seg.M1.astype(int).tolist()
            if P0 != P1:
                assert not has_root(P0, P1)
                for A in slices(P0, P1, 8):
                    assert not has_root(A, scaled(far, 8))
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
        on_axis = m.F(np.array([(0.0, z)]))
        assert np.all(np.isfinite(on_axis))
        # the limit of the ("ud", a, b) term as rho -> 0
        np.testing.assert_allclose(on_axis, m.F(np.array([(1e-300, z)])), rtol=1e-12)


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
    assert np.array_equal(m.axis_frames(np.array(z_samples)), A_ref)
    M, Minv, d = m.frame_factors(pts)
    assert np.array_equal(m.omega(pts), reference_omega(m, pts))

    chis = []
    for k, (rho, z) in enumerate(pts):
        A = A_ref[k % len(z_samples)]
        chi = modelmap._smoothstep((math.hypot(rho, z - m.z0) - R1) / (R2 - R1))
        M_ref = A + chi * (m.far_frame - A)
        U, V = m._UV(np.array([rho]), np.array([z]))
        d_ref = np.ones(m.n)
        d_ref[0], d_ref[1] = np.exp(U[0]), np.exp(V[0])
        assert np.array_equal(M[k], M_ref)
        assert np.array_equal(Minv[k], np.linalg.inv(M_ref))
        assert np.array_equal(d[k], d_ref)
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
    m = TransformedMap(base, h_matrices(base.n)[0]) if transform else base
    args = (m, h) + (grid or verifier_grid(base)[1])
    got = tension_field(*args)
    monkeypatch.setattr(modelmap, "_tension_stencil", full_span_tension_stencil)
    want = tension_field(*args)
    assert_same_bits(got, want)
    assert np.nanmax(got[4]) > 0.0


def test_omega_span_matches_full_span_stencil_at_rays_and_probes(monkeypatch):
    m = build_model_map(parse(PAPER_DIAGRAM.read_text()))
    lo, hi = modelmap._finite_extent(m)
    _, _, rays = modelmap._decay_rays(m, 7, 24)
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
    span = modelmap._omega_span(m.omega(np.stack([R, Z], axis=-1)))
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


def per_segment_distance(m, points):
    """Distance to the axis set as the least hypot over the axis rods."""
    pts = np.asarray(points, dtype=float)
    rho, z = pts[..., 0], pts[..., 1]
    best = np.full(rho.shape, np.inf)
    for z_lo, z_hi in m.axis_segments:
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
        assert np.array_equal(m.distance_to_axis(pts), per_segment_distance(m, pts))
    rng = np.random.default_rng(55)
    lo, hi = modelmap._finite_extent(m)
    rho = np.concatenate(
        [np.zeros(2000), rng.uniform(0.0, 1e-6, 2000), rng.uniform(0.0, 50.0, 6000)]
    )
    z = rng.uniform(lo - 1e3, hi + 1e3, rho.size)
    z[:3000] = rng.choice([lo, hi, lo - 1e8, hi + 1e8, *(b for s in m.axis_segments for b in s
                                                         if math.isfinite(b))], 3000)
    pts = np.stack([rho, z], axis=-1)
    got = m.distance_to_axis(pts)
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
    m = base if h_matrix is None else TransformedMap(base, h_matrix)
    _, pts = frame_sample_points(base)
    chi = base._blend_weight(*pts.T)
    assert any(0.0 < c < 1.0 for c in chi) and 1.0 in chi
    np.testing.assert_allclose(modelmap._point_fields(m, pts)[2], det_f(m, pts), rtol=1e-12)


def h_matrices(n):
    """An integer change of coordinates of each kind in rank n: det 1
    (upper bidiagonal), det -1 (the first two axes swapped) and det 2."""
    swap = np.eye(n)
    swap[[0, 1]] = swap[[1, 0]]
    det_two = np.eye(n)
    det_two[1, 1], det_two[0, 1] = 2.0, 1.0
    return [np.eye(n) + np.eye(n, k=1), swap, det_two]


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
    m = base if kind is None else TransformedMap(base, h_matrices(base.n)[kind])
    _, pts = frame_sample_points(base)
    pts = pts[pts[:, 0] <= 2.0]  # rho = 0.5 and 2 on every frame piece
    assert not np.any(base._blend_weight(*pts.T))
    F, Finv, _, _ = modelmap._point_fields(m, pts)
    M, Minv, d = m.frame_factors(pts)
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
    blended = np.count_nonzero(m._blend_weight(rho[:, None], z[None, :]) > 0.0)
    assert 0 < blended < rho.size * z.size
    assert all(len(shape) == 1 for shape in stacked)
    assert sum(shape[0] for shape in stacked) == 2 * blended


def test_tension_field_invariant_under_unimodular_transform():
    # the grid level's z stage is transformed with the map: the whole
    # figure-2 field, blend annulus included, keeps its tension
    m = build_model_map(figure2_diagram())
    args = (0.5, 30.0, -25.0, 35.0)
    want = tension_field(m, *args)
    got = tension_field(TransformedMap(m, h_matrices(3)[0]), *args)
    assert np.array_equal(got[5], want[5])
    for a, b in zip(got[2:5], want[2:5]):
        np.testing.assert_allclose(a, b, rtol=1e-8, atol=1e-13, equal_nan=True)


def test_point_stage_computes_blend_weight_once(monkeypatch):
    m = build_model_map(figure2_diagram())
    calls = []
    real = modelmap.ModelMap._blend_weight

    def counting(self, rho, z):
        calls.append(rho.shape)
        return real(self, rho, z)

    monkeypatch.setattr(modelmap.ModelMap, "_blend_weight", counting)
    pts = np.stack(np.meshgrid([0.5, 20.0, 40.0], [-9.0, 3.0, 30.0], indexing="ij"), axis=-1)
    modelmap._point_fields(m, pts)
    assert calls == [(3, 3)]
    modelmap._point_fields(TransformedMap(m, np.eye(3)), pts)
    assert len(calls) == 2


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


def former_omega(self, rho, z, level, at, chi):
    """ModelMap._omega as it was before the z stage carried the near-field
    profile: the profile evaluated on the level's whole z axis at every
    call, so once per strip of a grid."""
    near = modelmap._profile_at(self.omega_profile, level.z)[at]
    blend = chi > 0.0
    if blend.any():
        c_north, c_south = map(np.asarray, self.omega_far)
        theta = np.arctan2(rho[blend], z[blend] - self.z0)
        s_theta = modelmap._smoothstep((theta - self.epsilon) / (math.pi - 2.0 * self.epsilon))
        far = c_north + s_theta[:, None] * (c_south - c_north)
        c = chi[blend][:, None]
        near[blend] = (1.0 - c) * near[blend] + c * far
    return near


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
    monkeypatch.setattr(modelmap.ModelMap, "_omega", former_omega)
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
    tm = TransformedMap(m, h_mat)
    for rho, z in [(1.0, 2.7), (2.0, -4.0), (40.0, 10.0), (0.9, 6.6)]:
        a = tension_norm(m, rho, z, 0.02)
        b = tension_norm(tm, rho, z, 0.02)
        assert b == pytest.approx(a, rel=1e-8, abs=1e-13)


# ----------------------------------------------------------------------
# the verifier


def test_verify_tension_report_fig2():
    m = build_model_map(figure2_diagram())
    rep = verify_tension(m, h=0.1, decade_points=12, rays=5)
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
    held = [seg.held_col for seg in m.segments if not seg.constant]
    assert m.slots[1] in held  # the mid-rod transition holds rod 1's slot
    for idx, zm in [(0, -1.0), (1, 1.0), (2, 3.0), (4, 8.0)]:
        F = m.F(np.array([[1e-6, zm]]))[0]
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
        F = m.F(np.array([[1e-6, zm]]))[0]
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
        F = m.F(np.array([[1e-6, zm]]))[0]
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


@pytest.mark.parametrize("options, setting", [({"decade_points": 1}, "decade_points")])
def test_verify_tension_rejects_empty_decay_data(options, setting):
    m = build_model_map(no_corner_diagram())
    with pytest.raises(ModelMapError, match=setting):
        verify_tension(m, h=0.2, **options)


@pytest.mark.parametrize("factor", [float("nan"), float("inf"), -5.0, -1e-300])
def test_verify_tension_rejects_bad_excision_factor(monkeypatch, factor):
    # a NaN factor once ran both grids before it reported "no interior
    # point"; a negative one passed and reported a negative excision radius
    m = build_model_map(no_corner_diagram())

    def no_grid(*args):
        raise AssertionError("the grid was evaluated")

    monkeypatch.setattr(modelmap, "_tension_strips", no_grid)
    with pytest.raises(ModelMapError, match=f"excision_factor = {factor}"):
        verify_tension(m, h=0.2, excision_factor=factor)


def test_verify_tension_harmonic_configuration():
    # exactly harmonic map: the measured far field and annulus sups are
    # pure discretization noise, which shrinks under refinement and falls
    # off faster than the required decay rate
    m = build_model_map(no_corner_diagram())
    rep = verify_tension(m, h=0.1, decade_points=8, rays=3)
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


def test_csv_dump(tmp_path):
    m = build_model_map(no_corner_diagram())
    rep = verify_tension(m, h=0.2, decade_points=6, rays=3)
    path = tmp_path / "field.csv"
    rep.dump_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "rho,z,tau,tau_f,tau_omega"
    assert len(lines) > 100


def test_csv_dump_matches_tension_field(tmp_path):
    m = build_model_map(figure2_diagram())
    rep = verify_tension(m, h=0.25, decade_points=6, rays=3)
    path = tmp_path / "field.csv"
    rep.dump_csv(path)
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
    "diagram",
    [parse(PAPER_DIAGRAM.read_text()), no_corner_diagram(), rank_two_counterexample()],
    ids=["paper", "no-corner", "rank-two"],
)
def test_streamed_annuli_match_full_grid_reference(monkeypatch, diagram):
    m = build_model_map(diagram)
    want = reference_annuli(m, 0.2)
    # 10**4 rows is more than either grid has
    for strip_rows in (modelmap.STRIP_ROWS, 1, 10**4):
        monkeypatch.setattr(modelmap, "STRIP_ROWS", strip_rows)
        assert verify_tension(m, h=0.2, decade_points=6, rays=3).annuli == want


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
            verify_tension(m, h=0.1, decade_points=6, rays=3)
            return tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()

    assert peak_bytes(stretched) < 2.3 * peak_bytes(base)
