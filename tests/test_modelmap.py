import io
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


# ----------------------------------------------------------------------
# reference formulas the optimized library paths are compared against


def tension_parts(m, rho, z, h):
    """(|tau|, |tau_F part|, |tau_omega part|) at one point."""
    return tuple(float(part[0]) for part in modelmap._tension_at(m, [(rho, z)], h))


def det_f(m, points):
    return np.linalg.det(m.F(points))


def reference_frame_factors(m, points):
    """Frame factors that find chi and the distinct z values themselves
    (one frame per distinct z, one blended frame per point with chi > 0)."""
    pts = np.asarray(points, dtype=float)
    rho, z = pts[..., 0], pts[..., 1]
    U, V = m._UV(rho, z)
    z_axis, at = np.unique(z, return_inverse=True)
    at = at.reshape(z.shape)
    A = m.axis_frames(z_axis)
    M = A[at]
    Minv = np.linalg.inv(A)[at]
    chi = m._blend_weight(rho, z)
    blend = chi > 0.0
    if blend.any():
        Mb = M[blend]
        Mb += chi[blend][:, None, None] * (m.far_frame - Mb)
        M[blend] = Mb
        Minv[blend] = np.linalg.inv(Mb)
    d = np.ones(rho.shape + (m.n,))
    d[..., 0] = np.exp(U)
    d[..., 1] = np.exp(V)
    return M, Minv, d


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


def reference_point_fields(m, points):
    """Point stage built from the two reference formulas, each with its
    own chi."""
    M, Minv, d = reference_frame_factors(m, points)
    F = modelmap._congruence(Minv, d)
    Finv = modelmap._congruence(np.swapaxes(M, -1, -2), 1.0 / d)
    return F, Finv, np.linalg.det(F), reference_omega(m, points)


def reference_annuli(m, h):
    """Annulus records of verify_tension (default excision factor) from both
    fields held whole: nanmax of tension_field at h and h/2 over full-grid
    ring masks."""
    lo, hi = modelmap._finite_extent(m)
    width = max(hi - lo, 1.0)
    rho_max, z_lo, z_hi = width + 2.0, lo - 1.8 * width, hi + 1.8 * width
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
        assert modelmap._v_pot(a, rho, z).tobytes() == direct_v_pot(a, rho, z).tobytes()


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


@pytest.mark.parametrize(
    "diagram, transitions", [(figure2_diagram(), True), (no_corner_diagram(), False)]
)
def test_frame_factors_match_per_point_reference(diagram, transitions):
    m = build_model_map(diagram)
    R1, R2 = m.blend_radii
    # the middle of every frame piece, and every finite piece boundary of
    # the frame curve and of the omega profile
    z_samples = [
        seg.z_hi - 1.0 if seg.z_lo == -INF
        else seg.z_lo + 1.0 if seg.z_hi == INF
        else 0.5 * (seg.z_lo + seg.z_hi)
        for seg in m.segments
    ]
    z_samples += sorted(
        {b for p in m.segments + m.omega_profile for b in (p.z_lo, p.z_hi) if math.isfinite(b)}
    )
    A_ref = [reference_piece_value(m.segments, z) for z in z_samples]
    assert np.array_equal(m.axis_frames(np.array(z_samples)), A_ref)
    rho_samples = [0.5, 2.0, 0.5 * (R1 + R2), R2 + 5.0]
    pts = np.array([(rho, z) for rho in rho_samples for z in z_samples])
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
    # tension_field call inverts it once per distinct z and strip, and
    # inverts per point only where the blend weight is positive
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
    strips = -(-T.shape[0] // modelmap.STRIP_ROWS)
    blended = np.count_nonzero(np.hypot(rho[:, None], z[None, :] - m.z0) > m.blend_radii[0])
    assert 0 < blended < rho.size * z.size
    assert sum(inverted) <= z.size * strips + blended


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
