"""Time-one map, derivative cocycle, and the Monte Carlo experiments."""

import importlib
import math
import os

import numpy as np
import pytest

from ietlab import kernels, measure
from ietlab.errors import ConstraintViolationError, LabError
from ietlab.flow import (
    Cocycle2x2,
    _batch_backend,
    _in_chunks,
    aaronson_average,
    aaronson_experiment,
    checkpoints_geometric,
    cocycle,
    cocycle_checkpoints,
    flow,
    ftle,
    jacobian_step,
    lyapunov_experiment,
    thread_count,
)
from ietlab.geometry import SuspensionPoint, constant_C, op_norm_euclidean
from ietlab.iet import CountableIET, FiberPoint
from ietlab.roof import RoofSpec

from canonical_points import draw_canonical

# the package's ``flow`` is the function of that name
flow_module = importlib.import_module("ietlab.flow")


# ---------------------------------------------------------------------------
# single steps
# ---------------------------------------------------------------------------


def test_time_one_under_the_roof_is_vertical(golden_spec):
    rng = np.random.default_rng(43)
    found = 0
    for _ in range(500):
        z = draw_canonical(golden_spec, rng)
        r = golden_spec.value(z.base).value
        if z.height + 1.0 < r:
            w = flow(golden_spec, z, 1.0)
            assert w.base == z.base
            assert w.height == z.height + 1.0
            assert jacobian_step(golden_spec, z) == Cocycle2x2.identity()
            found += 1
    assert found > 100


def test_flat_roof_crossing_example(flat_spec):
    # r = 1: from height 0.5 one time unit crosses once and lands at -0.5
    base = flat_spec.iet.locate(0.3)
    z = SuspensionPoint(base, 0.5)
    w = flow(flat_spec, z, 1.0)
    assert w.base == flat_spec.iet.step(base)
    assert w.height == -0.5
    jac = jacobian_step(flat_spec, z)
    assert (jac.m11, jac.m12, jac.m21, jac.m22) == (1.0, 0.0, 0.0, 1.0)
    assert jac.crossings == 1


def test_crossing_jacobian_shear_value(golden_spec):
    # crossing over base point x contributes m21 = -2 r'(x); at u = b/e the
    # derivative is -e/b, so the shear is +2e/b
    i = 0
    b = float(golden_spec.widths[i])
    base = FiberPoint(i, b * math.exp(-1.0))
    r = golden_spec.value(base)
    z = SuspensionPoint(base, r.value - 0.5)  # next unit step crosses
    jac = jacobian_step(golden_spec, z)
    assert jac.crossings == 1
    assert jac.m21 == pytest.approx(2.0 * math.e / b, rel=1e-12)
    assert (jac.m11, jac.m12, jac.m22) == (1.0, 0.0, 1.0)


def test_flow_time_must_be_finite(golden_spec):
    z = SuspensionPoint(golden_spec.iet.locate(0.2), 0.0)
    with pytest.raises(ConstraintViolationError):
        flow(golden_spec, z, math.inf)


# ---------------------------------------------------------------------------
# cocycle algebra
# ---------------------------------------------------------------------------


def test_cocycle_is_unipotent(golden_spec):
    rng = np.random.default_rng(45)
    for _ in range(100):
        z = draw_canonical(golden_spec, rng)
        c = cocycle(golden_spec, z, int(rng.integers(1, 300)))
        assert (c.m11, c.m12, c.m22) == (1.0, 0.0, 1.0)
        assert c.crossings >= 0


def test_cocycle_group_law(golden_spec):
    rng = np.random.default_rng(47)
    for _ in range(100):
        z = draw_canonical(golden_spec, rng)
        n = int(rng.integers(1, 200))
        m = int(rng.integers(1, 200))
        whole = cocycle(golden_spec, z, n + m)
        first = cocycle(golden_spec, z, n)
        second = cocycle(golden_spec, flow(golden_spec, z, float(n)), m)
        prod = second.compose(first)
        assert prod.crossings == whole.crossings
        assert prod.m21 == pytest.approx(
            whole.m21, rel=1e-12, abs=1e-12)


def test_cocycle_m21_equals_minus_two_sum_of_derivatives(golden_spec):
    # product of unipotent shears adds the off-diagonal entries, so m21 is
    # -2 sum r'(x_j) over the crossing base points x, Tx, ..., T^(k-1) x
    rng = np.random.default_rng(49)
    for _ in range(50):
        z = draw_canonical(golden_spec, rng)
        c = cocycle(golden_spec, z, 500)
        base = z.base
        acc = 0.0
        for _ in range(c.crossings):
            acc += golden_spec.value(base).derivative
            base = golden_spec.iet.step(base)
        assert c.m21 == pytest.approx(-2.0 * acc, rel=1e-9, abs=1e-9)


def test_cocycle_norm_bounded_by_birkhoff_sum(golden_spec):
    # ||d phi^n||_e <= sum of h = 2 + 2|r'| over the visited base points
    rng = np.random.default_rng(51)
    for _ in range(50):
        z = draw_canonical(golden_spec, rng)
        c = cocycle(golden_spec, z, 400)
        base = z.base
        bound = 0.0
        for _ in range(c.crossings + 1):
            bound += 2.0 + 2.0 * abs(golden_spec.value(base).derivative)
            base = golden_spec.iet.step(base)
        assert op_norm_euclidean(c.matrix) <= bound * (1 + 1e-12)


def test_cocycle_inverse_and_identity():
    a = Cocycle2x2(m21=3.5, crossings=4)
    b = Cocycle2x2(m21=-1.25, crossings=2)
    assert a.compose(a.inverse()).m21 == 0.0
    assert a.inverse().m21 == -3.5
    prod = a.compose(b)
    assert prod.m21 == 2.25 and prod.crossings == 6
    ident = Cocycle2x2.identity()
    assert op_norm_euclidean(ident.matrix) == 1.0
    assert a.compose(ident) == a


def test_cocycle_op_norm_closed_form():
    # for [[1,0],[s,1]] the top singular value solves
    # sigma^2 = 1 + s^2/2 + sqrt(s^2 + s^4/4)
    for s in (0.0, 0.5, -2.0, 10.0):
        c = Cocycle2x2(m21=s)
        want = float(np.linalg.svd(np.array([[1.0, 0.0], [s, 1.0]]),
                                   compute_uv=False)[0])
        assert op_norm_euclidean(c.matrix) == pytest.approx(want, rel=1e-14)


def test_cocycle_checkpoints_prefix_consistency(golden_spec):
    rng = np.random.default_rng(53)
    z = draw_canonical(golden_spec, rng)
    cps = [10, 50, 250]
    per_checkpoint, ends = cocycle_checkpoints(golden_spec, z, cps)
    for n, c in zip(cps, per_checkpoint):
        direct = cocycle(golden_spec, z, n)
        assert c == direct
    # flow(z, t) adds t to the height in one float op before gluing, while the
    # orbit kernel takes t unit steps; the two rounding paths agree on the base
    # but may differ in the height's last bits.
    end = flow(golden_spec, z, float(cps[-1]))
    assert ends[-1].base == end.base
    assert ends[-1].height == pytest.approx(end.height, abs=1e-9)


# ---------------------------------------------------------------------------
# finite-time exponents
# ---------------------------------------------------------------------------


def test_ftle_flat_roof_closed_form(flat_spec, params):
    # flat roof: identity cocycle, C = 2 everywhere, so the flat-norm
    # exponent is 0 and the blended one is exactly (2 log 2) / n
    base = flat_spec.iet.locate(0.37)
    z = SuspensionPoint(base, 0.25)
    for n in (10, 100, 1000):
        rec = ftle(flat_spec, params, z, n)
        assert rec.value_e == 0.0
        assert rec.value_delta == pytest.approx(2.0 * math.log(2.0) / n,
                                                rel=1e-12)


def test_ftle_correction_uses_both_endpoints(golden_spec, params):
    rng = np.random.default_rng(55)
    z = draw_canonical(golden_spec, rng)
    n = 200
    rec = ftle(golden_spec, params, z, n)
    end = flow(golden_spec, z, float(n))
    c = cocycle(golden_spec, z, n)
    want_e = max(0.0, math.log(op_norm_euclidean(c.matrix))) / n
    corr = (math.log(constant_C(golden_spec, z))
            + math.log(constant_C(golden_spec, end))) / n
    assert rec.value_e == pytest.approx(want_e, rel=1e-12)
    assert rec.value_delta == pytest.approx(want_e + corr, rel=1e-12)


# ---------------------------------------------------------------------------
# growth proxy for Birkhoff sums
# ---------------------------------------------------------------------------


def test_aaronson_constant_h_closed_form(golden_spec):
    # with the h = c hook the average is log(n c) / n exactly
    x = golden_spec.iet.locate(0.41)
    for n, c in ((100, 2.0), (10000, 0.5), (1000000, 3.0)):
        got = aaronson_average(golden_spec, x, n, h_const=c)
        assert got == pytest.approx(math.log(n * c) / n, rel=1e-12)


def test_aaronson_flat_spec_needs_no_hook(flat_spec):
    # the flat roof has h = 2 identically
    x = flat_spec.iet.locate(0.77)
    got = aaronson_average(flat_spec, x, 5000)
    assert got == pytest.approx(math.log(2.0 * 5000) / 5000, rel=1e-12)


def test_aaronson_dominates_log_n_over_n(golden_spec):
    # h >= 2, so the average is at least log(2n)/n
    rng = np.random.default_rng(57)
    for _ in range(20):
        x = golden_spec.iet.locate(rng.random())
        n = 3000
        got = aaronson_average(golden_spec, x, n)
        assert got >= math.log(2.0 * n) / n - 1e-15


# ---------------------------------------------------------------------------
# experiment drivers
# ---------------------------------------------------------------------------


def test_checkpoints_geometric_grid():
    assert checkpoints_geometric(100) == [100]
    assert checkpoints_geometric(1000) == [100, 300, 1000]
    assert checkpoints_geometric(5000) == [100, 300, 1000, 3000, 5000]
    assert checkpoints_geometric(50) == [50]
    grid = checkpoints_geometric(10 ** 6)
    assert grid[-1] == 10 ** 6
    assert all(a < b for a, b in zip(grid, grid[1:]))
    with pytest.raises(ConstraintViolationError):
        checkpoints_geometric(0)


def test_lyapunov_experiment_contract(golden_spec, params, warm_kernels):
    res = lyapunov_experiment(golden_spec, params, 1000, 12, seed=5)
    assert res.checkpoints == [100, 300, 1000]
    assert len(res.rows) == 12 * 3
    # ordered by (sample, checkpoint)
    order = [(r.seed, r.n) for r in res.rows]
    assert order == sorted(order)
    assert res.discard_rate < 1e-4
    for r in res.rows:
        assert r.value_e >= 0.0 and r.value_delta > 0.0
        assert r.crossings > 0
    # deterministic rerun
    again = lyapunov_experiment(golden_spec, params, 1000, 12, seed=5)
    assert again.rows == res.rows
    # schedule independence
    threaded = lyapunov_experiment(golden_spec, params, 1000, 12, seed=5,
                                   threads=4)
    assert threaded.rows == res.rows
    # different seed, different trajectories
    other = lyapunov_experiment(golden_spec, params, 1000, 12, seed=6)
    assert other.rows != res.rows


def test_lyapunov_medians_decay(golden_spec, params, warm_kernels):
    res = lyapunov_experiment(golden_spec, params, 10000, 30, seed=7)
    med = [res.median(n) for n in res.checkpoints]
    assert med[0] > med[-1]
    assert med[-1] < 0.05


def test_aaronson_experiment_contract(golden_spec, warm_kernels):
    res = aaronson_experiment(golden_spec, 1000, 10, seed=9)
    assert res.checkpoints == [100, 300, 1000]
    assert len(res.rows) == 30
    for r in res.rows:
        assert r.value >= math.log(2.0 * r.n) / r.n - 1e-15
    again = aaronson_experiment(golden_spec, 1000, 10, seed=9)
    assert again.rows == res.rows


def test_aaronson_redraws_starts_beyond_the_truncation():
    # four intervals cover [0, 0.75), and the block rotation never leaves
    # them; sample 0's first uniform start at seed 4 lies beyond them
    spec = RoofSpec.build(CountableIET.block_rotation(n_trunc=4))
    rng = np.random.default_rng(np.random.SeedSequence((4, 0)))
    first, second = rng.random(2)
    assert first >= 0.75 > second
    res = aaronson_experiment(spec, 100, 3, seed=4)
    assert res.discarded_trajectories >= 1
    assert [r.seed for r in res.rows] == [0, 1, 2]
    assert res.rows[0].start == spec.iet.locate(second)


def draws_one_by_one(spec, seeds):
    """``measure.sample_starts`` as one ``sample_mu`` call per seed."""
    out = []
    for seed in seeds:
        try:
            out.append(measure.sample_mu(spec, 1, seed).point(0))
        except LabError as exc:
            out.append(exc)
    return out


def outcome(entry):
    return [type(entry).__name__, str(entry)] \
        if isinstance(entry, LabError) else entry


# (relative offset, roof) -> the roof the sampler sees, and its round cap: a
# roof above its envelope on a tenth of every interval, and a roof of 0 on
# the left halves, which stalls samples whose first four proposals all land
# there
FAULTS = {
    "envelope": (lambda rel, r: np.where((rel > 0.3) & (rel < 0.4),
                                         r * (2.0 + rel), r), 512),
    "stall": (lambda rel, r: np.where(rel < 0.5, 0.0, r), 4),
}


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_batched_starts_fail_as_draws_one_by_one(monkeypatch, golden_spec,
                                                 params, fault):
    change, rounds = FAULTS[fault]
    backend = kernels.batch_kernels()
    evaluate = backend.roof_eval_batch

    def faulty(roof, idx, off, out_r, out_dr):
        evaluate(roof, idx, off, out_r, out_dr)
        out_r[:] = change(off / roof[0][idx], out_r)
        return 0

    monkeypatch.setattr(backend, "roof_eval_batch", faulty)
    monkeypatch.setattr(measure, "SAMPLE_MAX_ROUNDS", rounds)
    seeds = [(7, k, 0) for k in range(40)]
    want = [outcome(e) for e in draws_one_by_one(golden_spec, seeds)]
    got = [outcome(e) for e in measure.sample_starts(golden_spec, seeds)]
    assert got == want
    failed = [k for k, e in enumerate(want) if isinstance(e, list)]
    # several samples fail, each with its own message, after some that do not
    assert len(failed) > 1 and failed[0] > 0
    if fault == "envelope":
        assert len({want[k][1] for k in failed}) == len(failed)

    # the experiment raises the first failed sample's error either way
    def run():
        with pytest.raises(LabError) as info:
            lyapunov_experiment(golden_spec, params, 100, 40, seed=7)
        return outcome(info.value)

    batched = run()
    monkeypatch.setattr(flow_module, "sample_starts", draws_one_by_one)
    assert batched == run() == want[failed[0]]


def test_threads_split_lanes_only_under_numba():
    orbits, threads = _batch_backend(4)
    assert threads == (4 if kernels.NUMBA_ENABLED else 1)
    assert orbits is kernels.batch_kernels()


def test_in_chunks_runs_every_lane_once():
    for count, threads, want in ((10, 3, [(0, 3), (3, 6), (6, 10)]),
                                 (2, 5, [(0, 1), (1, 2)]),
                                 (7, 1, [(0, 7)])):
        seen = []
        _in_chunks(lambda lo, hi: seen.append((lo, hi)), count, threads)
        assert sorted(seen) == want


def test_thread_count_env(monkeypatch):
    monkeypatch.delenv("LAB_THREADS", raising=False)
    assert thread_count() >= 1
    monkeypatch.setenv("LAB_THREADS", "3")
    assert thread_count() == 3
    monkeypatch.setenv("LAB_THREADS", "0")
    assert thread_count() == 1
