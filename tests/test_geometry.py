"""Canonical coordinates and the edge-adapted norm."""

import math

import numpy as np
import pytest

from ietlab.errors import ConstraintViolationError
from ietlab.geometry import (
    SuspensionPoint,
    TangentVec,
    beta_factor,
    canonicalize,
    constant_C,
    edge_distance,
    fiber_edges,
    in_K_delta,
    is_canonical,
    metric_form,
    metric_norm,
    op_norm_between,
    op_norm_euclidean,
    rho_blend,
)
from ietlab.iet import FiberPoint

from canonical_points import draw_canonical


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
    for _ in range(300):
        z = draw_canonical(golden_spec, rng)
        below, here = fiber_edges(golden_spec, z.base)
        assert -below.value <= z.height < here.value
        d = edge_distance(golden_spec, z)
        assert d == pytest.approx(
            min(here.value - z.height, z.height + below.value), abs=0.0)
        assert d >= 0.0


def test_flat_roof_canonical_domain(flat_spec):
    # with r = 1 every fiber is [-1, 1); gluing is y -> y - 2
    z = canonicalize(flat_spec, flat_spec.iet.locate(0.3), 5.0)
    base3 = flat_spec.iet.locate(0.3)
    expect_base = base3
    for _ in range(3):  # 5.0 -> 3.0 -> 1.0 -> -1.0, three steps forward
        expect_base = flat_spec.iet.step(expect_base)
    assert z.base == expect_base
    assert z.height == -1.0


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
    for _ in range(500):
        z = draw_canonical(golden_spec, rng)
        g = metric_form(golden_spec, params, z)
        assert g.shape == (2, 2)
        assert g[0, 1] == g[1, 0]
        assert np.linalg.det(g) > 0.0 and g[0, 0] > 0.0
        if edge_distance(golden_spec, z) >= params.delta:
            assert np.array_equal(g, np.eye(2))
            v = TangentVec(float(rng.normal()), float(rng.normal()))
            assert metric_norm(golden_spec, params, z, v) == \
                metric_norm(golden_spec, params, z, v, kind="euclidean")


def test_metric_norm_is_quadratic_form_norm(golden_spec, params):
    rng = np.random.default_rng(31)
    for _ in range(300):
        z = draw_canonical(golden_spec, rng)
        g = metric_form(golden_spec, params, z)
        v = TangentVec(float(rng.normal()), float(rng.normal()))
        via_form = math.sqrt(np.array([v.dx, v.dy]) @ g @ [v.dx, v.dy])
        assert metric_norm(golden_spec, params, z, v) == pytest.approx(
            via_form, rel=1e-12)
    with pytest.raises(ConstraintViolationError):
        metric_norm(golden_spec, params, z, TangentVec(1, 0), kind="spectral")


def test_sandwich_inequality(golden_spec, params):
    rng = np.random.default_rng(33)
    for _ in range(2000):
        z = draw_canonical(golden_spec, rng)
        c = constant_C(golden_spec, z)
        assert c >= 2.0
        v = TangentVec(float(rng.normal()), float(rng.normal()))
        ne = metric_norm(golden_spec, params, z, v, kind="euclidean")
        nd = metric_norm(golden_spec, params, z, v)
        assert ne / c <= nd * (1 + 1e-12)
        assert nd <= c * ne * (1 + 1e-12)


def test_constant_c_uses_active_edge(golden_spec):
    # a point just under the roof must see the top derivative r'(x)
    base = golden_spec.iet.locate(0.03)
    top = golden_spec.value(base)
    z = SuspensionPoint(base, top.value - 1e-4)
    assert is_canonical(golden_spec, z)
    assert constant_C(golden_spec, z) == 2.0 + 2.0 * abs(top.derivative)


def test_beta_factor_one_in_core(golden_spec, params):
    rng = np.random.default_rng(35)
    core = 0
    for _ in range(1000):
        z = draw_canonical(golden_spec, rng)
        beta = beta_factor(golden_spec, params, z)
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
    for _ in range(500):
        m = rng.normal(size=(2, 2))
        want = float(np.linalg.svd(m, compute_uv=False)[0])
        assert op_norm_euclidean(m) == pytest.approx(want, rel=1e-12)


def random_spd(rng):
    a = rng.normal(size=(2, 2))
    return a.T @ a + 0.1 * np.eye(2)


def test_op_norm_between_matches_whitened_svd():
    # ||M||_{G_from -> G_to} equals the top singular value of
    # sqrt(G_to) M sqrt(G_from)^-1
    rng = np.random.default_rng(39)
    for _ in range(500):
        g_from = random_spd(rng)
        g_to = random_spd(rng)
        m = rng.normal(size=(2, 2))
        lf = np.linalg.cholesky(g_from)
        lt = np.linalg.cholesky(g_to)
        white = lt.T @ m @ np.linalg.inv(lf.T)
        want = float(np.linalg.svd(white, compute_uv=False)[0])
        assert op_norm_between(g_from, m, g_to) == pytest.approx(
            want, rel=1e-10)


def test_op_norm_between_euclidean_reduces():
    rng = np.random.default_rng(41)
    eye = np.eye(2)
    for _ in range(100):
        m = rng.normal(size=(2, 2))
        assert op_norm_between(eye, m, eye) == pytest.approx(
            op_norm_euclidean(m), rel=1e-12)
