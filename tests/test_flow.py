"""Time-one map, derivative cocycle, and the Monte Carlo experiments."""

import importlib
import math
import os

import numpy as np
import pytest

from ietlab import kernels, lanes, measure
from ietlab.errors import (ConstraintViolationError, LabError,
                           TruncationExceededError)
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
from whole_rounds import sample_mu_whole_rounds

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


def test_flat_middle_crossing_example(golden_spec):
    # at the middle of an interval r = 1 and r' = 0: from height 0.5 one
    # time unit crosses once, lands at -0.5 and shears by -2 r' = 0
    iet = golden_spec.iet
    for i in range(6):
        base = FiberPoint(i, 0.5 * iet.length(i))
        assert golden_spec.value(base)[:2] == (1.0, 0.0)
        z = SuspensionPoint(base, 0.5)
        w = flow(golden_spec, z, 1.0)
        assert w.base == iet.step(base)
        assert w.height == -0.5
        jac = jacobian_step(golden_spec, z)
        assert jac.m21 == 0.0
        assert jac.crossings == 1
        # h = 2 + 2|r'| = 2 at the one step of the Birkhoff sum
        assert aaronson_average(golden_spec, base, 1) == math.log(2.0)


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


def test_flow_time_must_be_finite(golden_spec):
    z = SuspensionPoint(golden_spec.iet.locate(0.2), 0.0)
    with pytest.raises(ConstraintViolationError):
        flow(golden_spec, z, math.inf)


# ---------------------------------------------------------------------------
# cocycle algebra
# ---------------------------------------------------------------------------


def test_cocycle_is_unipotent(golden_spec):
    """Along orbits the cocycle is the shear (1, 0; m21, 1) with a finite
    m21, and a step crosses the roof at most once."""
    rng = np.random.default_rng(45)
    for _ in range(100):
        z = draw_canonical(golden_spec, rng)
        n = int(rng.integers(1, 300))
        c = cocycle(golden_spec, z, n)
        assert math.isfinite(c.m21)
        assert 0 <= c.crossings <= n
        assert c.matrix.tolist() == [[1.0, 0.0], [c.m21, 1.0]]


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
    """The cocycle is the shear (1, 0; m21, 1): composing adds m21 and the
    crossings, the identity is neutral on either side, and the inverse
    matrix is the shear with m21 negated."""
    a = Cocycle2x2(m21=3.5, crossings=4)
    b = Cocycle2x2(m21=-1.25, crossings=2)
    assert a.compose(b) == b.compose(a) == Cocycle2x2(m21=2.25, crossings=6)
    ident = Cocycle2x2.identity()
    assert a.compose(ident) == ident.compose(a) == a
    assert ident.matrix.tolist() == [[1.0, 0.0], [0.0, 1.0]]
    assert op_norm_euclidean(ident.matrix) == 1.0
    assert a.matrix.tolist() == [[1.0, 0.0], [3.5, 1.0]]
    neg = Cocycle2x2(m21=-a.m21)
    assert np.linalg.inv(a.matrix).tolist() == neg.matrix.tolist()
    assert a.compose(neg).m21 == neg.compose(a).m21 == 0.0
    assert a.compose(neg).matrix.tolist() == ident.matrix.tolist()


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


def test_lyapunov_experiment_contract(golden_spec, params, warm_kernels,
                                      monkeypatch):
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
    monkeypatch.setenv("LAB_THREADS", "4")
    threaded = lyapunov_experiment(golden_spec, params, 1000, 12, seed=5)
    assert threaded.rows == res.rows
    # different seed, different trajectories
    other = lyapunov_experiment(golden_spec, params, 1000, 12, seed=6)
    assert other.rows != res.rows


def test_lyapunov_medians_decay(golden_spec, params, warm_kernels):
    res = lyapunov_experiment(golden_spec, params, 10000, 30, seed=7)
    med = [res.median(n) for n in res.checkpoints]
    assert med[0] > med[-1]
    assert med[-1] < 0.05


def test_lyapunov_refused_constant_discards_only_its_attempt(params):
    # on a five-interval rotation at seed 1, sample 27 starts in interval
    # 4, whose backward step leaves the truncation: its orbit is clean but
    # C at its start is refused, so that attempt is discarded and drawn
    # again, and the 27 samples before it keep their rows
    spec = RoofSpec.build(CountableIET.block_rotation(n_trunc=5))
    start = measure.sample_mu(spec, 1, (1, 27, 0)).point(0)
    with pytest.raises(TruncationExceededError,
                       match=r"^orbit reached interval 5 >= truncation 5$"):
        constant_C(spec, start)
    head = lyapunov_experiment(spec, params, 1, 27, seed=1)
    res = lyapunov_experiment(spec, params, 1, 40, seed=1)
    assert res.discarded_trajectories >= head.discarded_trajectories + 1
    assert res.rows[:27] == head.rows
    assert [r.seed for r in res.rows] == list(range(40))
    assert res.rows[27].start != start
    # on a three-interval odometer refusals at the starts and at the
    # endpoints discard their attempts too
    spec = RoofSpec.build(CountableIET.von_neumann_kakutani(n_trunc=3))
    res = lyapunov_experiment(spec, params, 7, 40, seed=0)
    assert res.discarded_trajectories >= 1
    assert [r.seed for r in res.rows if r.n == 7] == list(range(40))


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


def inject_fault(monkeypatch, fault):
    """The sampler sees the roof of ``FAULTS[fault]``, under its round cap."""
    change, rounds = FAULTS[fault]
    backend = kernels.batch_kernels()
    evaluate = backend.roof_eval_batch

    def faulty(roof, idx, off, out_r, out_dr):
        evaluate(roof, idx, off, out_r, out_dr)
        out_r[:] = change(off / roof[0][idx], out_r)
        return 0

    monkeypatch.setattr(backend, "roof_eval_batch", faulty)
    monkeypatch.setattr(measure, "SAMPLE_MAX_ROUNDS", rounds)


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_batched_starts_fail_as_draws_one_by_one(monkeypatch, golden_spec,
                                                 params, fault):
    inject_fault(monkeypatch, fault)
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


@pytest.mark.parametrize("block", [1, 7, 4096, lanes.POINT_BLOCK,
                                   measure.SAMPLE_CHUNK + 1])
@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_sample_mu_fails_as_whole_rounds_at_every_block_size(
        monkeypatch, golden_spec, fault, block):
    inject_fault(monkeypatch, fault)
    # several blocks a round, but for the block past a whole chunk
    count = min(600 * block, measure.SAMPLE_CHUNK + 300)
    with pytest.raises(LabError) as want:
        sample_mu_whole_rounds(golden_spec, count, 3)
    monkeypatch.setattr(lanes, "POINT_BLOCK", block)
    with pytest.raises(LabError) as got:
        measure.sample_mu(golden_spec, count, 3)
    assert outcome(got.value) == outcome(want.value)
    # each fault fails with its own error
    assert str(want.value).startswith(
        "envelope violated" if fault == "envelope" else "rejection sampler")


def test_threads_split_lanes_only_under_numba(monkeypatch):
    monkeypatch.setenv("LAB_THREADS", "4")
    orbits, threads = _batch_backend()
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
