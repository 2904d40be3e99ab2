"""Roof evaluation, policies, and integrals against independent oracles."""

import math

import numpy as np
import pytest
from scipy import integrate

from ietlab import kernels, lanes
from ietlab.errors import ConstraintViolationError, SingularityProximityError
from ietlab.iet import CountableIET, FiberPoint
from ietlab.roof import (
    DefaultPolicy,
    ExplicitPolicy,
    ProportionalPolicy,
    RoofSpec,
    bump_sup_derivative,
    choose_b_and_check,
    log_derivative_integral,
    roof_integral,
)


def bl(spec, i):
    return float(spec.widths[i]), float(spec.lengths[i])


# ---------------------------------------------------------------------------
# pointwise values
# ---------------------------------------------------------------------------


def test_spike_values_closed_form(golden_spec):
    # on the left spike r(u) = 1 - log(u / b); at u = b/e the value is 2
    # and the derivative -1/u = -e/b
    for i in range(4):
        b, l = bl(golden_spec, i)
        u = b * math.exp(-1.0)
        rv = golden_spec.value(FiberPoint(i, u))
        assert rv.value == pytest.approx(2.0, abs=1e-13)
        assert rv.derivative == pytest.approx(-math.e / b, rel=1e-13)
        assert rv.tag == 1
        # junction value r(b/2) = 1 + log 2
        rv2 = golden_spec.value_raw(FiberPoint(i, 0.5 * b))
        assert rv2.value == pytest.approx(1.0 + math.log(2.0), rel=1e-12)
        # mirrored right spike
        rv3 = golden_spec.value(FiberPoint(i, l - u))
        assert rv3.value == pytest.approx(2.0, abs=1e-12)
        assert rv3.derivative == pytest.approx(math.e / b, rel=1e-11)
        assert rv3.tag == 5


def test_roof_at_least_one_and_flat_middle(golden_spec):
    rng = np.random.default_rng(3)
    for i in range(6):
        b, l = bl(golden_spec, i)
        for u in rng.uniform(1e-9 * l, l * (1 - 1e-9), 300):
            rv = golden_spec.value_raw(FiberPoint(i, float(u)))
            assert rv.value >= 1.0 - 1e-12
        # the middle piece is exactly 1 with derivative exactly 0
        for u in rng.uniform(b, l - b, 50):
            rv = golden_spec.value_raw(FiberPoint(i, float(u)))
            assert rv.value == 1.0
            assert rv.derivative == 0.0
            assert rv.tag == 3


def test_roof_is_c1_across_junctions(golden_spec):
    # value and derivative agree from both sides of every breakpoint
    for i in range(3):
        b, l = bl(golden_spec, i)
        for j in (0.5 * b, b, l - b, l - 0.5 * b):
            h = 1e-9 * b
            lo = golden_spec.value_raw(FiberPoint(i, j - h))
            hi = golden_spec.value_raw(FiberPoint(i, j + h))
            assert hi.value - lo.value == pytest.approx(0.0, abs=1e-7)
            assert hi.derivative - lo.derivative == pytest.approx(
                0.0, abs=2e-5 / b)


def test_derivative_matches_finite_differences(golden_spec):
    rng = np.random.default_rng(5)
    for i in range(4):
        b, l = bl(golden_spec, i)
        for u in rng.uniform(1e-4 * b, l * (1 - 1e-5), 200):
            u = float(u)
            h = 1e-6 * min(u, l - u)
            lo = golden_spec.value_raw(FiberPoint(i, u - h)).value
            hi = golden_spec.value_raw(FiberPoint(i, u + h)).value
            dr = golden_spec.value_raw(FiberPoint(i, u)).derivative
            assert (hi - lo) / (2 * h) == pytest.approx(
                dr, rel=1e-5, abs=1e-7)


def test_exclusion_band(golden_spec):
    b, l = bl(golden_spec, 0)
    inside = FiberPoint(0, 0.5e-12 * l)
    with pytest.raises(SingularityProximityError):
        golden_spec.value(inside)
    assert golden_spec.in_band(inside)
    # the raw evaluator still answers, diverging like -log u
    rv = golden_spec.value_raw(inside)
    assert rv.value > 20.0
    ok = FiberPoint(0, 2e-12 * l)
    assert not golden_spec.in_band(ok)
    golden_spec.value(ok)


# ---------------------------------------------------------------------------
# the smooth step
# ---------------------------------------------------------------------------


def test_smooth_step_endpoints_and_symmetry():
    assert kernels.smooth_step(0.0) == (1.0, 0.0)
    assert kernels.smooth_step(1.0) == (0.0, 0.0)
    assert kernels.smooth_step(-3.0) == (1.0, 0.0)
    assert kernels.smooth_step(2.0) == (0.0, 0.0)
    assert kernels.smooth_step(0.5)[0] == pytest.approx(0.5, abs=1e-15)
    ts = np.linspace(0.01, 0.99, 99)
    vals = [kernels.smooth_step(float(t))[0] for t in ts]
    # decreasing, complementary, derivative consistent
    assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))
    for t in ts:
        a, da = kernels.smooth_step(float(t))
        a2, da2 = kernels.smooth_step(float(1.0 - t))
        assert a + a2 == pytest.approx(1.0, abs=1e-14)
        assert da == pytest.approx(da2, rel=1e-10, abs=1e-12)
        h = 1e-6
        fd = (kernels.smooth_step(float(t + h))[0]
              - kernels.smooth_step(float(t - h))[0]) / (2 * h)
        assert fd == pytest.approx(da, rel=1e-6, abs=1e-9)


def test_bump_sup_derivative_value():
    # for the symmetric exp(-1/t) step the maximum slope is 2 at t = 1/2
    assert bump_sup_derivative() == pytest.approx(2.0, rel=1e-9)


def test_bump_search_grid_is_every_thousandth_linspace_point():
    # bump_sup_derivative's coarse search takes every thousandth point of
    # linspace(0, 1, 10^6 + 1) without its ends, built without the fine
    # grid, and its slopes in one lane call, bit for bit the scalar ones
    fine = np.linspace(0.0, 1.0, 1_000_001)[1:-1][::1000]
    grid = np.arange(1, 1_000_000, 1000) * (1.0 / 1_000_000)
    assert fine.shape == (1000,)
    assert grid.tobytes() == fine.tobytes()
    slopes = np.array([kernels.smooth_step(t)[1] for t in fine.tolist()])
    assert lanes._smooth_step(grid)[1].tobytes() == slopes.tobytes()


# ---------------------------------------------------------------------------
# policies
# ---------------------------------------------------------------------------


def test_default_policy_widths_and_certificate(golden_iet):
    spec, summ = choose_b_and_check(golden_iet, DefaultPolicy(c=0.125, rho=0.5))
    for i in range(golden_iet.n_trunc):
        want = min(0.25 * golden_iet.length(i), 0.125 * 0.5 ** i)
        assert float(spec.widths[i]) == want
    assert summ.verdict == "CONVERGENT"
    # certificate dominates the direct tail sum over the next many terms
    direct_tail = sum(-w * math.log(w) for w in
                      (0.125 * 0.5 ** i for i in range(64, 1000)))
    assert summ.tail_bound >= direct_tail * (1.0 - 1e-12) > 0.0


def test_proportional_policy(golden_iet):
    spec, summ = choose_b_and_check(golden_iet, ProportionalPolicy(kappa=0.2))
    assert float(spec.widths[3]) == pytest.approx(
        0.2 * golden_iet.length(3), rel=1e-15)
    assert summ.verdict == "CONVERGENT"
    with pytest.raises(ConstraintViolationError):
        ProportionalPolicy(kappa=0.6)


def test_explicit_policy_and_width_constraint(golden_iet):
    n = golden_iet.n_trunc
    good = tuple(0.1 * golden_iet.length(i) for i in range(n))
    spec, summ = choose_b_and_check(golden_iet, ExplicitPolicy(values=good))
    assert summ.verdict == "UNKNOWN"
    bad = (golden_iet.length(0),) + good[1:]  # b_0 = l_0 breaks b < l/2
    with pytest.raises(ConstraintViolationError):
        choose_b_and_check(golden_iet, ExplicitPolicy(values=bad))
    with pytest.raises(ConstraintViolationError):
        choose_b_and_check(golden_iet, ExplicitPolicy(values=good[:5]))



@pytest.mark.parametrize("iet", [
    CountableIET.block_rotation(), CountableIET.block_rotation(n_trunc=7),
    CountableIET.block_swap(), CountableIET.von_neumann_kakutani(),
    CountableIET.explicit_table(
        [(0.0, 0.3), (0.2, 0.3), (0.5, -0.5), (0.8, 0.0)], n_trunc=16)],
    ids=["rotation", "rotation_odd", "swap", "odometer", "table"])
def test_spec_lengths_are_the_maps_lengths(iet):
    spec = RoofSpec.build(iet)
    assert spec.lengths.shape == (iet.n_trunc,)
    for i in range(iet.n_trunc):
        assert spec.lengths[i] == iet.length(i)


def test_default_policy_underflow_names_largest_truncation():
    # c * rho^i = 0.125 * 0.5^1072 = 2^-1075 rounds to 0.0
    deepest = CountableIET.block_rotation(n_trunc=1072)
    spec, _ = choose_b_and_check(deepest)
    assert float(spec.widths[-1]) > 0.0
    with pytest.raises(ConstraintViolationError,
                       match=r"c\*rho\^i .* underflows to 0\.0 on interval "
                             r"1072; the largest usable n_trunc is 1072"):
        choose_b_and_check(CountableIET.block_rotation(n_trunc=1073))


def test_proportional_policy_underflow_names_largest_truncation():
    # kappa * l = 0.25 * 2^-1073 = 2^-1075 rounds to 0.0
    policy = ProportionalPolicy()
    deepest = CountableIET.von_neumann_kakutani(n_trunc=1072)
    spec = RoofSpec.build(deepest, policy)
    assert float(spec.widths[-1]) > 0.0
    with pytest.raises(ConstraintViolationError,
                       match=r"kappa\*l = 0\.25\*.* underflows to 0\.0 on "
                             r"interval 1072; the largest usable n_trunc is "
                             r"1072"):
        RoofSpec.build(CountableIET.von_neumann_kakutani(n_trunc=1073),
                       policy)

# ---------------------------------------------------------------------------
# integrals against scipy
# ---------------------------------------------------------------------------


def scipy_interval_integral(spec, i, f):
    b, l = bl(spec, i)
    val, err = integrate.quad(
        f, 0.0, l, points=[0.5 * b, b, l - b, l - 0.5 * b], limit=400)
    return val, err


def test_roof_integral_matches_scipy(golden_spec):
    n = 6
    total = 0.0
    for i in range(n):
        val, err = scipy_interval_integral(
            golden_spec, i,
            lambda u, i=i: golden_spec.value_raw(FiberPoint(i, u)).value)
        assert err < 1e-9
        total += val
    ours = roof_integral(golden_spec, n_terms=n)
    assert ours.value == pytest.approx(total, rel=1e-9)


def test_log_derivative_integral_matches_scipy(golden_spec):
    n = 5
    total = 0.0
    for i in range(n):
        val, err = scipy_interval_integral(
            golden_spec, i,
            lambda u, i=i: math.log1p(
                abs(golden_spec.value_raw(FiberPoint(i, u)).derivative)))
        assert err < 1e-8
        total += val
    ours, bound = log_derivative_integral(golden_spec, n_terms=n)
    assert ours == pytest.approx(total, rel=1e-8)
    full, full_bound = log_derivative_integral(golden_spec)
    assert full <= full_bound


def test_quadrature_schemes_agree(golden_spec):
    a = roof_integral(golden_spec, scheme="simpson")
    b = roof_integral(golden_spec, scheme="gauss")
    assert abs(a.value - b.value) <= 1e-8 * abs(a.value)
    with pytest.raises(ConstraintViolationError):
        roof_integral(golden_spec, scheme="trapezoid")


def test_roof_integral_upper_bound(golden_spec):
    # integral of the base length is 1 and each blend pair adds at most
    # (2 + log 2) b, so with the default policy the total stays under 3
    res = roof_integral(golden_spec)
    assert res.value + res.error_bound <= 3.0


def test_tail_bound_covers_deeper_truncation(golden_iet):
    # integrating twice as many intervals moves mass from the tail bound
    # into the value without ever exceeding value + tail of the shallower run
    shallow_iet = CountableIET.block_rotation(n_trunc=32)
    deep_iet = CountableIET.block_rotation(n_trunc=64)
    shallow = roof_integral(choose_b_and_check(shallow_iet)[0])
    deep = roof_integral(choose_b_and_check(deep_iet)[0])
    assert deep.value >= shallow.value - 1e-15
    assert deep.value <= shallow.value + shallow.error_bound
    assert deep.error_bound < shallow.error_bound
