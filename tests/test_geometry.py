"""Canonical coordinates and the edge-adapted norm.

The geometry's one implementation works on lanes, so each test draws its
points one at a time and evaluates them in one ``lane_geometry`` call.
Tests of a formula's shape (the blend weight, the core region) read the
scalar formulas in ``scalar_geometry``.
"""

import math

import numpy as np
import pytest

from ietlab import lane_geometry
from ietlab.errors import (ConsistencyError, ConstraintViolationError,
                           LabError)
from ietlab.geometry import (
    SuspensionPoint,
    TangentVec,
    canonicalize,
    constant_C,
    metric_norm,
    op_norm_between,
)
from ietlab.iet import FiberPoint

from canonical_points import draw_canonical
from scalar_geometry import edge_distance, in_K_delta, is_canonical, rho_blend


def lane_points(pts):
    """The points ``pts`` as lanes."""
    return lane_geometry.Points(
        np.array([z.index for z in pts], dtype=np.int64),
        np.array([z.offset for z in pts]), np.array([z.height for z in pts]))


def lane_vectors(vecs):
    """The tangent vectors ``vecs`` as arrays ``(dx, dy)``."""
    return (np.array([v.dx for v in vecs]), np.array([v.dy for v in vecs]))


# ---------------------------------------------------------------------------
# canonical form
# ---------------------------------------------------------------------------


def reference_canonicalize(spec, base, y):
    """Independent stepwise gluing: up (Tx, y - 2 r(x)), down the reverse."""
    iet = spec.iet
    for _ in range(100000):
        r_here = spec.value(base).value
        prev = iet.step_back(base)
        r_below = spec.value(prev).value
        if y >= r_here:
            y = y - 2.0 * r_here
            base = iet.step(base)
        elif y < -r_below:
            y = y + 2.0 * r_below
            base = prev
        else:
            return SuspensionPoint(base, y)
    raise AssertionError("reference gluing did not terminate")


def test_canonicalize_matches_reference(golden_spec):
    rng = np.random.default_rng(21)
    for _ in range(800):
        base = golden_spec.iet.locate(rng.random())
        y = float(rng.uniform(-12.0, 12.0))
        try:
            got = canonicalize(golden_spec, base, y)
        except Exception:
            with pytest.raises(Exception):
                reference_canonicalize(golden_spec, base, y)
            continue
        want = reference_canonicalize(golden_spec, base, y)
        assert got.base == want.base
        assert got.height == pytest.approx(want.height, abs=1e-12)
        assert is_canonical(golden_spec, got)


def test_canonicalize_identity_on_canonical_points(golden_spec):
    rng = np.random.default_rng(23)
    for _ in range(300):
        z = draw_canonical(golden_spec, rng)
        again = canonicalize(golden_spec, z.base, z.height)
        assert again == z  # bit-exact


def test_fiber_edges_and_distance(golden_spec):
    rng = np.random.default_rng(25)
    pts = [draw_canonical(golden_spec, rng) for _ in range(300)]
    z = lane_points(pts)
    edges, _ = lane_geometry.fiber_edges(golden_spec, z.idx, z.off)
    for k, p in enumerate(pts):
        below, here = edges[0][k], edges[2][k]
        assert -below <= p.height < here
        d = edge_distance(golden_spec, p)
        assert d == pytest.approx(min(here - p.height, p.height + below),
                                  abs=0.0)
        assert d >= 0.0


def test_canonicalize_glues_like_the_reference_loop(golden_spec):
    # from the flat middle of an interval (r = 1) far above or below the
    # fiber, gluing takes several steps: up (x, y) -> (Tx, y - 2 r(x)),
    # down (x, y) -> (T^-1 x, y + 2 r(T^-1 x)), with r from spec.value
    iet = golden_spec.iet
    for i in range(6):
        mid = FiberPoint(i, 0.5 * iet.length(i))
        for y0 in (5.0, -5.0):
            p, y, glues = mid, y0, 0
            while y >= golden_spec.value(p).value:
                y -= 2.0 * golden_spec.value(p).value
                p = iet.step(p)
                glues += 1
            while y < -golden_spec.value(iet.step_back(p)).value:
                p = iet.step_back(p)
                y += 2.0 * golden_spec.value(p).value
                glues += 1
            assert glues >= 2
            z = canonicalize(golden_spec, mid, y0)
            assert z.base == p
            assert z.height == y


# ---------------------------------------------------------------------------
# blend weight and metric
# ---------------------------------------------------------------------------


def test_rho_blend_saturation(golden_spec, params):
    rng = np.random.default_rng(27)
    seen_one = seen_mid = 0
    for _ in range(2000):
        z = draw_canonical(golden_spec, rng)
        rho = rho_blend(golden_spec, params, z)
        d = edge_distance(golden_spec, z)
        assert 0.0 <= rho <= 1.0
        if d >= params.delta:
            assert rho == 1.0  # exactly
            seen_one += 1
        elif d / params.delta <= 1e-6:
            assert rho == 0.0
        else:
            seen_mid += 1
    assert seen_one > 100 and seen_mid > 10


def test_metric_form_is_spd_and_euclidean_in_core(golden_spec, params):
    rng = np.random.default_rng(29)
    pts, core, vecs = [], [], []
    for _ in range(500):
        z = draw_canonical(golden_spec, rng)
        pts.append(z)
        if edge_distance(golden_spec, z) >= params.delta:
            core.append(z)
            vecs.append(TangentVec(float(rng.normal()), float(rng.normal())))
    for g in lane_geometry.metric_form(golden_spec, params, lane_points(pts)):
        assert g.shape == (2, 2)
        assert g[0, 1] == g[1, 0]
        assert np.linalg.det(g) > 0.0 and g[0, 0] > 0.0
    z = lane_points(core)
    for g in lane_geometry.metric_form(golden_spec, params, z):
        assert np.array_equal(g, np.eye(2))
    dx, dy = lane_vectors(vecs)
    assert np.array_equal(
        lane_geometry.metric_norm(golden_spec, params, z, dx, dy),
        lane_geometry.metric_norm(golden_spec, params, z, dx, dy,
                                  kind="euclidean"))


def test_metric_norm_is_quadratic_form_norm(golden_spec, params):
    rng = np.random.default_rng(31)
    pts, vecs = [], []
    for _ in range(300):
        pts.append(draw_canonical(golden_spec, rng))
        vecs.append(TangentVec(float(rng.normal()), float(rng.normal())))
    z = lane_points(pts)
    dx, dy = lane_vectors(vecs)
    forms = lane_geometry.metric_form(golden_spec, params, z)
    norms = lane_geometry.metric_norm(golden_spec, params, z, dx, dy)
    for g, v, nd in zip(forms, vecs, norms):
        via_form = math.sqrt(np.array([v.dx, v.dy]) @ g @ [v.dx, v.dy])
        assert nd == pytest.approx(via_form, rel=1e-12)
    with pytest.raises(ConstraintViolationError):
        metric_norm(golden_spec, params, pts[-1], TangentVec(1, 0),
                    kind="spectral")


def test_sandwich_inequality(golden_spec, params):
    rng = np.random.default_rng(33)
    pts, vecs = [], []
    for _ in range(2000):
        pts.append(draw_canonical(golden_spec, rng))
        vecs.append(TangentVec(float(rng.normal()), float(rng.normal())))
    z = lane_points(pts)
    dx, dy = lane_vectors(vecs)
    c = lane_geometry.constant_C(golden_spec, z)
    ne = lane_geometry.metric_norm(golden_spec, params, z, dx, dy,
                                   kind="euclidean")
    nd = lane_geometry.metric_norm(golden_spec, params, z, dx, dy)
    assert (c >= 2.0).all()
    assert (ne / c <= nd * (1 + 1e-12)).all()
    assert (nd <= c * ne * (1 + 1e-12)).all()


def test_constant_c_uses_active_edge(golden_spec):
    # a point just under the roof must see the top derivative r'(x)
    base = golden_spec.iet.locate(0.03)
    top = golden_spec.value(base)
    z = SuspensionPoint(base, top.value - 1e-4)
    assert is_canonical(golden_spec, z)
    assert constant_C(golden_spec, z) == 2.0 + 2.0 * abs(top.derivative)


def test_beta_factor_one_in_core(golden_spec, params):
    rng = np.random.default_rng(35)
    pts = [draw_canonical(golden_spec, rng) for _ in range(1000)]
    betas = lane_geometry.beta_factor(golden_spec, params, lane_points(pts))
    core = 0
    for z, beta in zip(pts, betas):
        assert beta >= 1.0
        if in_K_delta(golden_spec, params, z):
            assert beta == 1.0
            core += 1
    assert core > 50


# ---------------------------------------------------------------------------
# operator norms
# ---------------------------------------------------------------------------


def test_op_norm_euclidean_matches_svd():
    rng = np.random.default_rng(37)
    m = np.array([rng.normal(size=(2, 2)) for _ in range(500)])
    for a, norm in zip(m, lane_geometry.op_norm_euclidean(m)):
        want = float(np.linalg.svd(a, compute_uv=False)[0])
        assert norm == pytest.approx(want, rel=1e-12)


def random_spd(rng):
    a = rng.normal(size=(2, 2))
    return a.T @ a + 0.1 * np.eye(2)


def test_op_norm_between_matches_whitened_svd():
    # ||M||_{G_from -> G_to} equals the top singular value of
    # sqrt(G_to) M sqrt(G_from)^-1
    rng = np.random.default_rng(39)
    cases = [(random_spd(rng), random_spd(rng), rng.normal(size=(2, 2)))
             for _ in range(500)]
    g_from, g_to, m = (np.array(a) for a in zip(*cases))
    norms = lane_geometry.op_norm_between(g_from, m, g_to)
    for (gf, gt, a), norm in zip(cases, norms):
        lf = np.linalg.cholesky(gf)
        lt = np.linalg.cholesky(gt)
        white = lt.T @ a @ np.linalg.inv(lf.T)
        want = float(np.linalg.svd(white, compute_uv=False)[0])
        assert norm == pytest.approx(want, rel=1e-10)


def test_op_norm_between_euclidean_reduces():
    rng = np.random.default_rng(41)
    m = np.array([rng.normal(size=(2, 2)) for _ in range(100)])
    eye = np.stack([np.eye(2)] * 100)
    np.testing.assert_allclose(lane_geometry.op_norm_between(eye, m, eye),
                               lane_geometry.op_norm_euclidean(m), rtol=1e-12)


def test_op_norm_between_names_a_zero_gram_determinant():
    # the blended norm's Gram matrix at rho = 0 with shear s = 2^27: its
    # determinant (1 + s*s) - s*s rounds to 0.0
    s = 2.0 ** 27
    g = np.array([[1.0 + s * s, s], [s, 1.0]])
    with pytest.raises(ConsistencyError, match="determinant 0.0") as scalar:
        op_norm_between(g, np.eye(2), np.eye(2))
    assert isinstance(scalar.value, LabError)  # the CLI exits 2 on it
    stack = np.stack([np.eye(2), g])
    with pytest.raises(ConsistencyError) as lane:
        lane_geometry.op_norm_between(stack, np.stack([np.eye(2)] * 2),
                                      np.stack([np.eye(2)] * 2))
    assert str(lane.value) == str(scalar.value)
