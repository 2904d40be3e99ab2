"""The numpy lane kernels against their scalar versions, and the lane
geometry against the scalar formulas of ``scalar_geometry``, bit for bit.

Every float is compared through its int64 bit pattern, so a difference in
the last bit (or in the sign of a zero) fails.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ietlab import kernels, lane_geometry, lanes
from ietlab.errors import (
    ConsistencyError,
    LabError,
    SingularityProximityError,
    TruncationExceededError,
)
from ietlab.flow import flow, jacobian_step
from ietlab.geometry import MetricParams, TangentVec
from ietlab.iet import CountableIET
from ietlab.measure import sample_mu
from ietlab.roof import RoofSpec

from scalar_geometry import (
    beta_factor,
    constant_C,
    fiber_edges,
    metric_form,
    metric_norm,
    op_norm_between,
    op_norm_euclidean,
)

COMMON = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])

FAMILIES = {
    "rotation": CountableIET.block_rotation(),
    "rotation_odd": CountableIET.block_rotation(n_trunc=7),
    "swap": CountableIET.block_swap(n_trunc=9),
    "odometer": CountableIET.von_neumann_kakutani(),
    "odometer_shallow": CountableIET.von_neumann_kakutani(n_trunc=9),
    "table": CountableIET.explicit_table(
        [(0.0, 0.3), (0.2, 0.3), (0.5, -0.5), (0.8, 0.0)], n_trunc=16),
    "table_tail_only": CountableIET.explicit_table([(0.0, 0.0)], n_trunc=8),
}
SPEC = RoofSpec.build(FAMILIES["rotation"])


def bits(x):
    return np.asarray(x, dtype=np.float64).view(np.int64)


def assert_same_floats(got, want):
    assert np.array_equal(bits(got), bits(want))


def special_offsets(iet, i):
    """Offsets at which a step of interval i changes branch."""
    l = iet.length(i)
    out = [0.0, 0.5 * l, np.nextafter(l, 0.0)]
    if iet.family == kernels.FAM_ROTATION:
        block = float(np.ldexp(1.0, -(i >> 1) - 1))
        cut = (1.0 - iet.theta) * block
        edge = cut - (block - cut) if i % 2 == 0 else cut
        out += [edge, np.nextafter(edge, 0.0), np.nextafter(edge, 1.0)]
    return [u for u in out if 0.0 <= u < l]


@st.composite
def step_lanes(draw, min_count=1):
    name = draw(st.sampled_from(sorted(FAMILIES)))
    iet = FAMILIES[name]
    count = draw(st.integers(min_value=min_count, max_value=24))
    idx, off = [], []
    for _ in range(count):
        i = draw(st.integers(min_value=0, max_value=iet.n_trunc - 1))
        kind = draw(st.sampled_from(["uniform", "special", "wild"]))
        if kind == "uniform":
            u = draw(st.floats(0.0, 1.0, exclude_max=True)) * iet.length(i)
        elif kind == "special":
            u = draw(st.sampled_from(special_offsets(iet, i)))
        else:
            # offsets outside the interval: a table maps some of them
            # outside [0, 1) (INCONSISTENT)
            u = draw(st.floats(-2.0, 2.0))
        idx.append(i)
        off.append(u)
    return iet, np.array(idx, dtype=np.int64), np.array(off)


@settings(max_examples=300, **COMMON)
@given(case=step_lanes())
def test_step_lanes_match_scalar_step(case):
    iet, idx, off = case
    base = iet.pack()
    j, v, status = lanes.iet_step(base, idx, off)
    want = [kernels.iet_step(base, int(i), float(u)) for i, u in zip(idx, off)]
    assert j.tolist() == [w[0] for w in want]
    assert_same_floats(v, [w[1] for w in want])
    assert status.tolist() == [w[2] for w in want]


def test_step_lanes_cover_every_status_and_branch():
    table = FAMILIES["table"]
    # finite part, the tail, and images at x < 0 and x >= 1
    idx = np.array([0, 1, 2, 5, 0, 1], dtype=np.int64)
    off = np.array([0.1, 0.05, 0.2, 0.001, -0.5, 0.9])
    j, v, status = lanes.iet_step(table.pack(), idx, off)
    assert status.tolist() == [kernels.OK] * 4 + [kernels.INCONSISTENT] * 2
    assert (j[-2:].tolist(), v[-2:].tolist()) == ([0, 1], [-0.5, 0.9])
    # the odometer's i == 0 branch and an exit from the truncation
    odometer = FAMILIES["odometer_shallow"]
    j, v, status = lanes.iet_step(odometer.pack(), np.array([0, 0, 3]),
                                  np.array([0.2, 0.499, 0.01]))
    assert status.tolist() == [kernels.OK, kernels.TRUNCATION, kernels.OK]
    for k, (i, u) in enumerate([(0, 0.2), (0, 0.499), (3, 0.01)]):
        want = kernels.iet_step(odometer.pack(), i, u)
        assert (j[k], v[k], status[k]) == want


@st.composite
def roof_lanes(draw, min_count=1):
    spec = SPEC
    count = draw(st.integers(min_value=min_count, max_value=24))
    idx, off = [], []
    for _ in range(count):
        i = draw(st.integers(min_value=0, max_value=spec.iet.n_trunc - 1))
        l = float(spec.lengths[i])
        b = float(spec.widths[i])
        # the five pieces, their breakpoints and both interval ends
        lo, hi = draw(st.sampled_from([(0.0, 0.5 * b), (0.5 * b, b),
                                       (b, l - b), (l - b, l - 0.5 * b),
                                       (l - 0.5 * b, l)]))
        if draw(st.booleans()):
            u = draw(st.sampled_from([lo, hi, np.nextafter(hi, 0.0)]))
        else:
            u = lo + draw(st.floats(0.0, 1.0)) * (hi - lo)
        idx.append(i)
        off.append(u)
    return spec, np.array(idx, dtype=np.int64), np.array(off)


@pytest.mark.filterwarnings("ignore:overflow encountered in divide")
@settings(max_examples=300, **COMMON)
@given(case=roof_lanes())
def test_roof_lanes_match_scalar_roof(case):
    spec, idx, off = case
    b, l = spec.widths[idx], spec.lengths[idx]
    r, dr = lanes.roof_eval(off, b, l)
    want = [kernels.roof_eval(float(u), float(spec.widths[i]),
                              float(spec.lengths[i]))
            for i, u in zip(idx, off)]
    assert_same_floats(r, [w[0] for w in want])
    assert_same_floats(dr, [w[1] for w in want])
    no_value, dr_only = lanes.roof_eval(off, b, l, value=False)
    assert no_value is None
    assert_same_floats(dr_only, dr)


def test_roof_lanes_visit_every_piece():
    i = 3
    l, b = float(SPEC.lengths[i]), float(SPEC.widths[i])
    off = np.array([0.2 * b, 0.7 * b, 0.5 * l, l - 0.7 * b, l - 0.2 * b])
    pieces = [kernels.roof_eval(float(u), b, l)[2] for u in off]
    assert pieces == [1, 2, 3, 4, 5]
    r, dr = lanes.roof_eval(off, np.full(5, b), np.full(5, l))
    want = [kernels.roof_eval(float(u), b, l) for u in off]
    assert_same_floats(r, [w[0] for w in want])
    assert_same_floats(dr, [w[1] for w in want])


# ---------------------------------------------------------------------------
# batch kernels: lanes in lockstep against one scalar call per lane
# ---------------------------------------------------------------------------

CPS = np.array([50, 300, 1000, 3000], dtype=np.int64)


def batch_starts(spec, count, seed):
    """Starts from the measure, plus two lanes inside the exclusion band."""
    batch = sample_mu(spec, count, seed)
    l0 = float(spec.lengths[0])
    band = spec.band * l0
    idx = np.concatenate([batch.idx, [0, 0]])
    off = np.concatenate([batch.off, [0.5 * band, l0 - 0.5 * band]])
    hei = np.concatenate([batch.hei, [0.0, 0.5]])
    return idx, off, hei


def lyap_outputs(count, cps=CPS):
    """``out_m21`` to ``out_y``, ``out_fail`` and ``status``, all
    sentinels."""
    shape = (count, cps.shape[0])
    rows = [np.full(shape, -7.5)]
    rows += [np.full(shape, -7, dtype=np.int64) for _ in range(2)]
    rows += [np.full(shape, -7.5) for _ in range(2)]
    return (*rows, np.full(count, -9, dtype=np.int64),
            np.full(count, -9, dtype=np.int64))


def scalar_lyap(base, roof, idx, off, hei, cps=CPS):
    outs = lyap_outputs(idx.shape[0], cps)
    *rows, out_fail, status = outs
    for k in range(idx.shape[0]):
        status[k] = kernels.lyap_orbit(
            base, roof, int(idx[k]), float(off[k]), float(hei[k]), cps,
            *(a[k] for a in rows), out_fail[k:k + 1])
    return outs


def assert_same_outputs(got, want):
    for g, w in zip(got, want):
        if g.dtype == np.float64:
            assert_same_floats(g, w)
        else:
            assert np.array_equal(g, w)


def assert_lyap_lanes_match_scalar(spec, idx, off, hei, cps):
    """Both batch kernels give the scalar loop's outputs; returns those."""
    base, roof = spec.iet.pack(), spec.pack()
    want = scalar_lyap(base, roof, idx, off, hei, cps)
    for impl in (lanes, kernels):
        got = lyap_outputs(idx.shape[0], cps)
        bad = impl.lyap_orbits(base, roof, idx, off, hei, cps, *got)
        assert_same_outputs(got, want)
        assert bad == int(np.count_nonzero(want[-1]))
    return want


def spike_starts(spec):
    """Lanes on both spikes of interval 0, far below their roof: they stay
    at one window entry while the other lanes move through theirs."""
    l0 = float(spec.lengths[0])
    near = 2.0 * spec.band * l0
    return (np.zeros(2, dtype=np.int64), np.array([near, l0 - near]),
            np.array([-150.0, -90.0]))


# a checkpoint after each of the first two steps, then about 40 windows
LONG_CPS = np.array([1, 2, 2500], dtype=np.int64)


@pytest.mark.parametrize("name, cps", [
    pytest.param(name, cps, id=name + suffix)
    for cps, suffix in ((CPS, ""), (LONG_CPS, "-long_cps"))
    for name in ("rotation", "swap", "odometer_shallow", "table")])
def test_lyap_orbits_match_scalar_orbits(name, cps):
    spec = RoofSpec.build(FAMILIES[name])
    starts = zip(spike_starts(spec), batch_starts(spec, 40, seed=8))
    idx, off, hei = (np.concatenate(pair) for pair in starts)
    want = assert_lyap_lanes_match_scalar(spec, idx, off, hei, cps)
    status, fail = want[-1], want[-2]
    assert status[-2:].tolist() == [kernels.SINGULARITY] * 2
    assert fail[-2:].tolist() == [0, 0]
    if name != "odometer_shallow":
        # at step 150 the first spike lane has not crossed yet, while some
        # other lane has passed the end of two windows
        probe = scalar_lyap(spec.iet.pack(), spec.pack(), idx, off, hei,
                            np.array([150]))[1][:, 0]
        assert probe[0] == 0 and probe[2:-2].max() >= 2 * lanes.WINDOW
    elif cps is CPS:
        # lanes leave the truncation at many different steps
        assert np.count_nonzero(status == kernels.TRUNCATION) > 5
        assert len(set(fail[status == kernels.TRUNCATION].tolist())) > 5


def orbit_to(spec, j, v, m):
    """A start whose base orbit reaches ``(j, v)`` at its m-th step."""
    base = spec.iet.pack()
    for _ in range(m):
        j, v, st = kernels.iet_step_inv(base, j, v)
        assert st == kernels.OK
    return j, v


def first_event(spec, i, u, steps):
    """(step, status) of the first band point or failed step of the base
    orbit from ``(i, u)``, in the order of the scalar loop."""
    base, (lengths, _, band) = spec.iet.pack(), spec.pack()
    for m in range(steps):
        l = lengths[i]
        if u < band * l or u > l - band * l:
            return m, kernels.SINGULARITY
        i, u, st = kernels.iet_step(base, i, u)
        if st != kernels.OK:
            return m, st
    return steps, kernels.OK


@pytest.mark.parametrize("code", [kernels.SINGULARITY, kernels.TRUNCATION],
                         ids=["band", "truncation"])
@pytest.mark.parametrize("m", [lanes.WINDOW - 1, lanes.WINDOW,
                               lanes.WINDOW + 1, 2 * lanes.WINDOW - 1],
                         ids=lambda m: f"step{m}")
def test_lyap_orbits_fail_at_window_edges(code, m):
    """A lane alone in its batch, so that its windows hold crossings
    [0, WINDOW), [WINDOW, 2 WINDOW), ...: its base orbit fails at step m,
    next to a window's edge."""
    if code == kernels.SINGULARITY:
        spec = SPECS["rotation"]
        j, v = 5, 0.5 * spec.band * float(spec.lengths[5])
    else:
        # 0.5 + v lies in interval n_trunc of the odometer
        spec = SPECS["odometer_shallow"]
        j, v = 0, 0.5 - 0.5 ** (spec.iet.n_trunc + 1)
        assert kernels.iet_step(spec.iet.pack(), j, v)[2] == code
    i, u = orbit_to(spec, j, v, m)
    assert first_event(spec, i, u, m + 2) == (m, code)
    idx, off, hei = np.array([i]), np.array([u]), np.array([0.25])
    cps = np.array([3 * m, 12 * m], dtype=np.int64)
    want = assert_lyap_lanes_match_scalar(spec, idx, off, hei, cps)
    assert want[-1].tolist() == [code]


@pytest.mark.parametrize("last", [False, True])
def test_lyap_orbits_write_a_band_crossing_at_its_checkpoint(last):
    """A lane that crosses into the band on the last step before a
    checkpoint is written there; it fails at the next step, or never if
    that was the final step."""
    spec = SPECS["rotation"]
    j, v = 5, 0.5 * spec.band * float(spec.lengths[5])
    i, u = orbit_to(spec, j, v, 1)
    s = 20  # the step of the crossing
    r = kernels.roof_eval(u, float(spec.widths[i]),
                          float(spec.lengths[i]))[0]
    cps = np.array([10, s + 1] if last else [s + 1, s + 40], dtype=np.int64)
    starts = zip((np.array([i]), np.array([u]), np.array([r - s - 0.5])),
                 batch_starts(spec, 6, seed=3))
    idx, off, hei = (np.concatenate(pair) for pair in starts)
    want = assert_lyap_lanes_match_scalar(spec, idx, off, hei, cps)
    at = 1 if last else 0
    # one crossing, onto a point in the band
    assert (want[1][0, at], want[2][0, at]) == (1, j)
    assert want[3][0, at] < spec.band * float(spec.lengths[j])
    if last:
        assert (want[-1][0], want[-2][0]) == (kernels.OK, -1)
    else:
        assert (want[-1][0], want[-2][0]) == (kernels.SINGULARITY, s + 1)
        assert want[1][0, 1] == -7  # not written after the failure


@pytest.mark.parametrize("count", [0, 1])
def test_lyap_orbits_take_empty_and_single_batches(count):
    spec = SPECS["rotation"]
    idx, off, hei = (a[:count] for a in batch_starts(spec, 4, seed=5))
    want = assert_lyap_lanes_match_scalar(spec, idx, off, hei, CPS)
    assert want[-1].tolist() == [kernels.OK] * count


@pytest.mark.parametrize("name", ["rotation", "swap", "odometer_shallow",
                                  "table"])
def test_birkhoff_h_orbits_match_scalar_orbits(name):
    spec = RoofSpec.build(FAMILIES[name])
    base, roof = spec.iet.pack(), spec.pack()
    idx, off, _ = batch_starts(spec, 40, seed=9)
    count = idx.shape[0]
    want_sum = np.full((count, CPS.shape[0]), -7.5)
    want_status = np.array([
        kernels.birkhoff_h_orbit(base, roof, int(idx[k]), float(off[k]), CPS,
                                 want_sum[k])
        for k in range(count)])
    for impl in (lanes, kernels):
        out_sum = np.full((count, CPS.shape[0]), -7.5)
        status = np.full(count, -9, dtype=np.int64)
        bad = impl.birkhoff_h_orbits(base, roof, idx, off, CPS, out_sum,
                                     status)
        assert_same_floats(out_sum, want_sum)
        assert np.array_equal(status, want_status)
        assert bad == int(np.count_nonzero(want_status))
    assert want_status[-2:].tolist() == [kernels.SINGULARITY] * 2
    if name == "odometer_shallow":
        assert np.count_nonzero(want_status == kernels.TRUNCATION) > 5


CHUNKS = (0, 97, 211, 300)


def chunked_orbits(spec, batch, cuts):
    """Both lane batch kernels on ``batch``, one call per chunk between
    consecutive ``cuts``: their failure counts and every output."""
    base, roof = spec.iet.pack(), spec.pack()
    count = batch.idx.shape[0]
    lyap = lyap_outputs(count)
    out_sum = np.full((count, CPS.shape[0]), -7.5)
    status = np.full(count, -9, dtype=np.int64)
    bad = [0, 0]
    for a, b in zip(cuts, cuts[1:]):
        idx, off, hei = batch.idx[a:b], batch.off[a:b], batch.hei[a:b]
        bad[0] += lanes.lyap_orbits(base, roof, idx, off, hei, CPS,
                                    *(out[a:b] for out in lyap))
        bad[1] += lanes.birkhoff_h_orbits(base, roof, idx, off, CPS,
                                          out_sum[a:b], status[a:b])
    return bad, (*lyap, out_sum, status)


@pytest.mark.parametrize("iet", [
    CountableIET.block_rotation(),
    CountableIET.von_neumann_kakutani(n_trunc=14),
    CountableIET.block_swap(n_trunc=9)], ids=["rotation", "odometer", "swap"])
def test_batch_lanes_give_the_same_bits_in_chunks(iet):
    """Lanes are independent: one call and contiguous chunks of it write
    the same outputs, failed lanes included."""
    spec = RoofSpec.build(iet)
    batch = sample_mu(spec, CHUNKS[-1], 11)
    bad, whole = chunked_orbits(spec, batch, (0, CHUNKS[-1]))
    chunked_bad, chunked = chunked_orbits(spec, batch, CHUNKS)
    assert_same_outputs(chunked, whole)
    assert chunked_bad == bad
    assert (min(bad) > 0) == (iet.family != kernels.FAM_ROTATION)


def reference_walk(base, i, u, span):
    """``lanes._walk`` as a loop over ``lanes.iet_step``, one step per row."""
    orbit_i, orbit_u = [i], [u]
    first = np.full(i.shape[0], span)
    code = np.zeros(i.shape[0], dtype=np.int64)
    for s in range(span):
        j, v, status = lanes.iet_step(base, i, u)
        failed = status != kernels.OK
        new = failed & (first == span)
        first[new] = s
        code[new] = status[new]
        i, u = np.where(failed, i, j), np.where(failed, u, v)
        orbit_i.append(i)
        orbit_u.append(u)
    return np.array(orbit_i), np.array(orbit_u), first, code


# rotations whose 1 - theta is exact and one where it rounds, each with an
# even truncation and an odd one, whose last interval's pair reaches it
WALK_ROTATIONS = [CountableIET.block_rotation(theta=theta, n_trunc=ntr)
                  for theta in (CountableIET.block_rotation().theta, 0.1, 0.25)
                  for ntr in (10, 11)]


@st.composite
def walk_lanes(draw):
    iet = draw(st.sampled_from(WALK_ROTATIONS))
    ntr = iet.n_trunc
    count = draw(st.integers(min_value=1, max_value=12))
    idx, off = [], []
    for _ in range(count):
        i = draw(st.one_of(st.just(ntr - 1),
                           st.integers(min_value=0, max_value=ntr - 1)))
        if draw(st.booleans()):
            u = draw(st.floats(0.0, 1.0, exclude_max=True)) * iet.length(i)
        else:
            # 0, the cut and just below it, for both pieces of the block
            u = draw(st.sampled_from(special_offsets(iet, i)))
        idx.append(i)
        off.append(u)
    span = draw(st.integers(min_value=1, max_value=40))
    return iet, np.array(idx, dtype=np.int64), np.array(off), span


@settings(max_examples=200, **COMMON)
@given(case=walk_lanes())
def test_rotation_walk_matches_a_loop_over_iet_step(case):
    iet, idx, off, span = case
    got = lanes._walk(iet.pack(), idx, off, span)
    want = reference_walk(iet.pack(), idx, off, span)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        if g.dtype == np.float64:
            assert_same_floats(g, w)
        else:
            assert np.array_equal(g, w)


def test_rotation_walk_leaves_an_odd_truncation_from_its_last_pair():
    iet = CountableIET.block_rotation(n_trunc=11)
    idx = np.array([10, 4], dtype=np.int64)
    off = np.array([0.5 * iet.length(10), 0.0])
    orbit_i, orbit_u, first, code = lanes._walk(iet.pack(), idx, off, 8)
    assert code.tolist() == [kernels.TRUNCATION, kernels.OK]
    assert first.tolist() == [0, 8]
    assert set(orbit_i[:, 0].tolist()) == {10}


# ---------------------------------------------------------------------------
# per-point batch kernels: one call on lanes against the scalar loop
# ---------------------------------------------------------------------------

# the scalar kernels divide numpy scalars: 1/u overflows on subnormal u
OVERFLOW = "ignore:overflow encountered in:RuntimeWarning"
SPECS = {name: RoofSpec.build(iet) for name, iet in FAMILIES.items()}
STATUS_CODES = {SingularityProximityError: kernels.SINGULARITY,
                TruncationExceededError: kernels.TRUNCATION,
                ConsistencyError: kernels.INCONSISTENT}


def broken_table():
    """The table with every translation raised by 0.5: interval 1 then maps
    past 1 (INCONSISTENT), while intervals 0 and 2 still map into [0, 1)."""
    base = FAMILIES["table"].pack()
    return base[:3] + (base[3] + 0.5,) + base[4:]


def time_one_offsets(spec, i):
    """Offsets at the band edges, the roof's breakpoints and the step's."""
    l, b = float(spec.lengths[i]), float(spec.widths[i])
    lo, hi = spec.band * l, l - spec.band * l
    out = [lo, np.nextafter(lo, 0.0), np.nextafter(lo, 1.0), hi,
           np.nextafter(hi, 0.0), np.nextafter(hi, 1.0), 0.5 * b, b, l - b,
           l - 0.5 * b, 0.0, l, -l]
    return out + special_offsets(spec.iet, i)


@st.composite
def time_one_lanes(draw):
    name = draw(st.sampled_from(sorted(SPECS)))
    spec = SPECS[name]
    base = spec.iet.pack()
    if name == "table" and draw(st.booleans()):
        base = broken_table()
    count = draw(st.integers(min_value=0, max_value=24))
    idx, off, hei = [], [], []
    for _ in range(count):
        i = draw(st.integers(min_value=0, max_value=spec.iet.n_trunc - 1))
        l = float(spec.lengths[i])
        if draw(st.booleans()):
            u = draw(st.floats(0.0, 1.0, exclude_max=True)) * l
        else:
            u = draw(st.sampled_from(time_one_offsets(spec, i)))
        r = 1.0
        if 0.0 < u < l:
            r = kernels.roof_eval(u, float(spec.widths[i]), l)[0]
        # heights anywhere in the fiber, and at the crossing threshold
        edge = r - 1.0
        y = draw(st.one_of(st.floats(-2.0 * r, 2.0 * r),
                           st.sampled_from([edge, np.nextafter(edge, -1e9),
                                            np.nextafter(edge, 1e9)])))
        idx.append(i)
        off.append(u)
        hei.append(y)
    return (base, spec.pack(), np.array(idx, dtype=np.int64), np.array(off),
            np.array(hei))


def run_both(name, packs, arrays):
    """``name`` from ``kernels`` and from ``lanes``, each on its own copies
    of ``arrays``: a ``(returned value, arrays)`` pair per backend."""
    runs = []
    for impl in (kernels, lanes):
        copies = [a.copy() for a in arrays]
        runs.append((getattr(impl, name)(*packs, *copies), copies))
    return runs


def assert_same_runs(runs):
    (want_bad, want), (got_bad, got) = runs
    assert got_bad == want_bad
    assert_same_outputs(got, want)


def statuses(count):
    return np.full(count, -9, dtype=np.int64)


@pytest.mark.filterwarnings(OVERFLOW)
@settings(max_examples=200, **COMMON)
@given(case=roof_lanes(min_count=0))
def test_roof_eval_batch_lanes_match_scalar_batch(case):
    spec, idx, off = case
    count = idx.shape[0]
    assert_same_runs(run_both("roof_eval_batch", (spec.pack(),),
                              [idx, off, np.full(count, -7.5),
                               np.full(count, -7.5)]))


@settings(max_examples=300, **COMMON)
@given(case=step_lanes(min_count=0))
def test_base_step_batch_lanes_match_scalar_batch(case):
    iet, idx, off = case
    assert_same_runs(run_both("base_step_batch", (iet.pack(),),
                              [idx, off, statuses(idx.shape[0])]))


@pytest.mark.filterwarnings(OVERFLOW)
@settings(max_examples=400, **COMMON)
@given(case=time_one_lanes())
def test_flow_time_one_batch_lanes_match_scalar_batch(case):
    base, roof, idx, off, hei = case
    assert_same_runs(run_both("flow_time_one_batch", (base, roof),
                              [idx, off, hei, statuses(idx.shape[0])]))


def test_time_one_lanes_mix_every_status():
    # the broken table maps interval 0 into the tail, deep into it near
    # the interval's end, and interval 1 past 1
    spec = SPECS["table"]
    l0, l1, l2 = (float(spec.lengths[i]) for i in range(3))
    idx = np.array([0, 0, 1, 2, 0, 2], dtype=np.int64)
    off = np.array([0.5 * l0, l0 * (1.0 - 1e-9), 0.5 * l1, 0.5 * l2, 0.0,
                    0.5 * l2])
    hei = np.array([50.0, 50.0, 50.0, 50.0, 50.0, -5.0])
    runs = run_both("flow_time_one_batch", (broken_table(), spec.pack()),
                    [idx, off, hei, statuses(6)])
    assert_same_runs(runs)
    got_idx, got_off, got_hei, status = runs[1][1]
    assert status.tolist() == [kernels.OK, kernels.TRUNCATION,
                               kernels.INCONSISTENT, kernels.OK,
                               kernels.SINGULARITY, kernels.OK]
    assert runs[1][0] == 3
    # failed lanes keep their points; the last lane climbs under the roof
    keep = status != kernels.OK
    assert np.array_equal(got_idx[keep], idx[keep])
    assert_same_floats(got_off[keep], off[keep])
    assert_same_floats(got_hei[keep], hei[keep])
    assert (got_idx[5], got_off[5], got_hei[5]) == (2, 0.5 * l2, -4.0)


@pytest.mark.parametrize("size", [0, 1, lanes.POINT_BLOCK - 1,
                                  lanes.POINT_BLOCK + 1,
                                  3 * lanes.POINT_BLOCK + 5])
def test_flow_time_one_batch_lanes_match_scalar_batch_across_blocks(size):
    # samples of an odd truncation, whose last interval's crossings leave
    # it, with some lanes moved into the band and heights at the climb
    # test's edge: y + 1 < 1 holds for y = -2^-53 and not for -2^-54
    spec = SPECS["rotation_odd"]
    batch = sample_mu(spec, size + 1, (3, size))
    idx, off, hei = batch.idx[:size], batch.off[:size], batch.hei[:size]
    off[5::11] = 0.0
    hei[::7] = -2.0 ** -53
    hei[3::7] = -2.0 ** -54
    low = hei + 1.0 < 1.0
    runs = run_both("flow_time_one_batch", (spec.iet.pack(), spec.pack()),
                    [idx, off, hei, statuses(size)])
    assert_same_runs(runs)
    status = runs[1][1][3]
    if size > 1:
        assert low.any() and not low.all()
    if size > lanes.POINT_BLOCK:
        assert {kernels.OK, kernels.SINGULARITY,
                kernels.TRUNCATION} <= set(status.tolist())


# 2^16 + 1 lanes: more than the largest batch a sampler round or an
# invariance chunk passes, in one call
@pytest.mark.parametrize("count", [0, 1, (1 << 16) + 1])
def test_per_point_lanes_take_empty_and_single_batches(count):
    spec = SPECS["rotation"]
    base, roof = spec.iet.pack(), spec.pack()
    idx = np.zeros(count, dtype=np.int64)
    off = np.full(count, 0.5 * float(spec.lengths[0]))
    hei = np.full(count, 0.3)
    for name, packs, arrays in (
            ("roof_eval_batch", (roof,),
             [idx, off, np.full(count, -7.5), np.full(count, -7.5)]),
            ("base_step_batch", (base,), [idx, off, statuses(count)]),
            ("flow_time_one_batch", (base, roof),
             [idx, off, hei, statuses(count)])):
        runs = run_both(name, packs, arrays)
        assert_same_runs(runs)
        assert runs[1][0] == 0
        if count:  # the last output was written
            assert not np.array_equal(runs[1][1][-1], arrays[-1])


# ---------------------------------------------------------------------------
# the check suite's pieces: locate, the backward step, canonical form and
# the geometry evaluators against their scalar versions
# ---------------------------------------------------------------------------


def inverse_offsets(iet, i):
    """Offsets at which a backward step of interval i changes branch."""
    l = iet.length(i)
    out = [0.0, 0.5 * l, np.nextafter(l, 0.0), 1e-300]
    if iet.family == kernels.FAM_ROTATION:
        block = float(np.ldexp(1.0, -(i >> 1) - 1))
        cut = (1.0 - iet.theta) * block
        # the wrap past the block's end, and the cut after it
        edges = [block - cut, cut - (block - cut)] if i % 2 == 0 \
            else [block - 2.0 * cut, 0.0]
        out += [e + k * np.spacing(max(e, 1e-300)) for e in edges
                for k in (-1, 0, 1)]
    elif iet.family == kernels.FAM_ODOMETER and i == 0:
        # the dyadic blocks that interval 0 maps back onto, past the
        # truncation too, and u = 0 (INCONSISTENT)
        for k in range(2, iet.n_trunc + 4):
            e = float(np.ldexp(1.0, -k))
            out += [e, np.nextafter(e, 0.0), np.nextafter(e, 1.0)]
    elif iet.family == kernels.FAM_EXPLICIT and i < iet.n_finite:
        # the image starts of the finite part and the tail start
        left = float(iet.xs[i])
        for e in [*iet.ys[:iet.n_finite].tolist(), float(iet.xs[-1])]:
            out += [e - left, np.nextafter(e, 0.0) - left]
    return [u for u in out if 0.0 <= u < l]


@st.composite
def inverse_lanes(draw):
    name = draw(st.sampled_from(sorted(FAMILIES)))
    iet = FAMILIES[name]
    count = draw(st.integers(min_value=0, max_value=24))
    idx, off = [], []
    for _ in range(count):
        i = draw(st.integers(min_value=0, max_value=iet.n_trunc - 1))
        kind = draw(st.sampled_from(["uniform", "special", "wild"]))
        if kind == "uniform":
            u = draw(st.floats(0.0, 1.0, exclude_max=True)) * iet.length(i)
        elif kind == "special":
            u = draw(st.sampled_from(inverse_offsets(iet, i)))
        else:
            # negative offsets: the odometer's u <= 0 and a table's x below
            # every image start are INCONSISTENT
            u = draw(st.floats(-2.0, 2.0))
        idx.append(i)
        off.append(u)
    return iet, np.array(idx, dtype=np.int64), np.array(off)


def assert_same_steps(got, want):
    j, v, status = got
    assert j.tolist() == [w[0] for w in want]
    assert_same_floats(v, [w[1] for w in want])
    assert status.tolist() == [w[2] for w in want]


@settings(max_examples=400, **COMMON)
@given(case=inverse_lanes())
def test_inverse_step_lanes_match_scalar_step(case):
    iet, idx, off = case
    base = iet.pack()
    want = [kernels.iet_step_inv(base, int(i), float(u))
            for i, u in zip(idx, off)]
    assert_same_steps(lanes.iet_step_inv(base, idx, off), want)


def test_inverse_step_lanes_reach_every_status():
    cases = [
        # interval 0 of the odometer: a deep block, u = 0 and a block past
        # the truncation of nine intervals
        ("odometer_shallow", [0, 0, 0, 3], [0.3, 0.0, 2.0 ** -12, 0.01]),
        # a table's finite part, its tail, an image start and x < 0
        ("table", [0, 1, 2, 5, 0], [0.1, 0.05, 0.0, 0.001, -0.5]),
        # the last interval of an odd truncation maps back past it
        ("rotation_odd", [6, 6], [0.0, 0.001]),
    ]
    seen = set()
    for name, idx, off in cases:
        base = FAMILIES[name].pack()
        idx, off = np.array(idx, dtype=np.int64), np.array(off)
        want = [kernels.iet_step_inv(base, int(i), float(u))
                for i, u in zip(idx, off)]
        assert_same_steps(lanes.iet_step_inv(base, idx, off), want)
        seen.update(w[2] for w in want)
    assert seen == {kernels.OK, kernels.TRUNCATION, kernels.INCONSISTENT}


def locate_points(iet):
    """Absolute points at interval ends, in the tail and past truncation."""
    out = [0.0, 0.5, np.nextafter(1.0, 0.0)]
    for i in range(iet.n_trunc):
        e = iet.left(i)
        out += [e, np.nextafter(e, 0.0), np.nextafter(e, 1.0)]
    return [x for x in out if 0.0 <= x < 1.0]


@settings(max_examples=300, **COMMON)
@given(data=st.data())
def test_locate_lanes_match_scalar_locate(data):
    iet = FAMILIES[data.draw(st.sampled_from(sorted(FAMILIES)))]
    x = np.array(data.draw(st.lists(
        st.one_of(st.floats(0.0, 1.0, exclude_max=True),
                  st.sampled_from(locate_points(iet))), max_size=24)))
    i, u, status = lanes.locate(iet.pack(), x)
    for k, xk in enumerate(x.tolist()):
        try:
            p = iet.locate(xk)
        except TruncationExceededError:
            assert status[k] == kernels.TRUNCATION
            continue
        assert (status[k], i[k]) == (kernels.OK, p.index)
        assert_same_floats(u[k], p.offset)


@st.composite
def canonical_lanes(draw):
    name = draw(st.sampled_from(sorted(SPECS)))
    spec = SPECS[name]
    count = draw(st.integers(min_value=0, max_value=16))
    idx, off, hei = [], [], []
    for _ in range(count):
        i = draw(st.integers(min_value=0, max_value=spec.iet.n_trunc - 1))
        l = float(spec.lengths[i])
        if draw(st.booleans()):
            u = draw(st.floats(0.0, 1.0, exclude_max=True)) * l
        else:
            u = draw(st.sampled_from(time_one_offsets(spec, i)
                                     + inverse_offsets(spec.iet, i)))
        r = 1.0
        if 0.0 < u < l:
            r = kernels.roof_eval(u, float(spec.widths[i]), l)[0]
        # heights anywhere, and at the top and bottom edges of the fiber
        y = draw(st.one_of(
            st.floats(-6.0, 6.0),
            st.sampled_from([r, np.nextafter(r, -1e9), -r,
                             np.nextafter(-r, 1e9), -1.0,
                             np.nextafter(-1.0, 1e9)])))
        idx.append(i)
        off.append(u)
        hei.append(y)
    # a small budget leaves some lanes still gluing (INCONSISTENT)
    max_glue = draw(st.sampled_from([1, 2, 100000]))
    return (spec, np.array(idx, dtype=np.int64), np.array(off),
            np.array(hei), max_glue)


@pytest.mark.filterwarnings(OVERFLOW)
@settings(max_examples=400, **COMMON)
@given(case=canonical_lanes())
def test_canonicalize_lanes_match_scalar_canonicalize(case):
    spec, idx, off, hei, max_glue = case
    base, roof = spec.iet.pack(), spec.pack()
    i, u, y, status = lanes.canonicalize_k(base, roof, idx, off, hei,
                                           max_glue)
    want = [kernels.canonicalize_k(base, roof, int(a), float(b), float(c),
                                   max_glue)
            for a, b, c in zip(idx, off, hei)]
    assert i.tolist() == [w[0] for w in want]
    assert_same_floats(u, [w[1] for w in want])
    assert_same_floats(y, [w[2] for w in want])
    assert status.tolist() == [w[3] for w in want]


def test_canonicalize_lanes_reach_every_status():
    spec = SPECS["odometer_shallow"]
    base, roof = spec.iet.pack(), spec.pack()
    l0 = float(spec.lengths[0])
    # climbs over the roof, falls through the floor into a block past the
    # truncation, sits in the band, and glues more often than allowed
    idx = np.array([0, 0, 0, 1, 0], dtype=np.int64)
    off = np.array([0.3, 0.7 * l0, 2.0 ** -12, 1e-20, 0.3])
    hei = np.array([0.5, 5.0, -3.0, 0.0, 40.0])
    i, u, y, status = lanes.canonicalize_k(base, roof, idx, off, hei, 4)
    want = [kernels.canonicalize_k(base, roof, int(a), float(b), float(c), 4)
            for a, b, c in zip(idx, off, hei)]
    assert status.tolist() == [w[3] for w in want]
    assert set(status.tolist()) == {kernels.OK, kernels.TRUNCATION,
                                    kernels.SINGULARITY, kernels.INCONSISTENT}
    assert i.tolist() == [w[0] for w in want]
    assert_same_floats(u, [w[1] for w in want])
    assert_same_floats(y, [w[2] for w in want])


def canonical_points(spec, count, seed):
    """Points of ``spec`` whose fiber edges exist (the checks' points), as
    lanes and as scalar points."""
    batch = sample_mu(spec, count, seed)
    z = lane_geometry.Points(batch.idx, batch.off, batch.hei)
    keep = []
    for k in range(count):
        try:
            fiber_edges(spec, z.point(k).base)
        except LabError:
            continue
        keep.append(k)
    z = z.take(np.array(keep, dtype=np.int64))
    return z, [z.point(k) for k in range(len(keep))]


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_geometry_lanes_match_scalar_geometry(name):
    spec = SPECS[name]
    params = MetricParams(delta=0.25)
    z, pts = canonical_points(spec, 400, seed=21)
    rng = np.random.default_rng(22)
    dx, dy = (rng.normal(size=z.idx.shape[0]) for _ in range(2))
    vecs = [TangentVec(a, b) for a, b in zip(dx.tolist(), dy.tolist())]
    edges, _ = lane_geometry.fiber_edges(spec, z.idx, z.off)
    for k, p in enumerate(pts):
        below, here = fiber_edges(spec, p.base)
        assert_same_floats([e[k] for e in edges],
                           [below.value, below.derivative, here.value,
                            here.derivative])
    for kind in ("euclidean", "delta"):
        assert_same_floats(lane_geometry.metric_norm(spec, params, z, dx, dy,
                                                     kind),
                           [metric_norm(spec, params, p, v, kind)
                            for p, v in zip(pts, vecs)])
    assert_same_floats(lane_geometry.constant_C(spec, z),
                       [constant_C(spec, p) for p in pts])
    assert_same_floats(lane_geometry.metric_form(spec, params, z),
                       [metric_form(spec, params, p) for p in pts])
    jac, status = lane_geometry.jacobian_step(spec, z)
    assert not status.any()
    assert_same_floats(jac, [jacobian_step(spec, p).matrix for p in pts])
    assert_same_floats(lane_geometry.op_norm_euclidean(jac),
                       [op_norm_euclidean(m) for m in jac])
    z1, status = lane_geometry.flow(spec, z, 1.0)
    for k, p in enumerate(pts):
        try:
            q = flow(spec, p, 1.0)
        except LabError as exc:
            assert status[k] == STATUS_CODES[type(exc)]
            continue
        assert status[k] == kernels.OK
        assert (z1.idx[k], *bits([z1.off[k], z1.hei[k]])) \
            == (q.index, *bits([q.offset, q.height]))
    try:
        beta = lane_geometry.beta_factor(spec, params, z)
    except LabError as exc:
        # the error of the first point whose scalar beta raises
        for p in pts:
            try:
                beta_factor(spec, params, p)
            except LabError as first:
                assert (type(exc), str(exc)) == (type(first), str(first))
                break
        else:
            raise
    else:
        assert_same_floats(beta, [beta_factor(spec, params, p) for p in pts])


def test_beta_lanes_raise_the_first_failing_point():
    # near the top of interval 0 of a five-interval odometer, Tx lies past
    # the truncation for u > 1/2 - 2^-6: the lanes before it pass
    spec = RoofSpec.build(CountableIET.von_neumann_kakutani(n_trunc=5))
    params = MetricParams(delta=0.25)
    u = np.array([0.1, 0.5 - 2.0 ** -8, 0.5 - 2.0 ** -9])
    r = lane_geometry.fiber_edges(spec, np.zeros(3, dtype=np.int64), u)[0][2]
    z = lane_geometry.Points(np.zeros(3, dtype=np.int64), u, r - 0.1)
    with pytest.raises(TruncationExceededError) as lane_error:
        lane_geometry.beta_factor(spec, params, z)
    assert beta_factor(spec, params, z.point(0)) > 1.0
    with pytest.raises(TruncationExceededError) as scalar_error:
        beta_factor(spec, params, z.point(1))
    assert str(lane_error.value) == str(scalar_error.value)
    with pytest.raises(SingularityProximityError):
        lane_geometry.fiber_edges(spec, np.array([1, 2]),
                                  np.array([0.1, 1e-30]))
    # a later lane whose fiber edges are refused does not raise first
    mixed = lane_geometry.Points(np.array([0, 2]), np.array([u[1], 1e-30]),
                                 np.array([r[1] - 0.1, 0.0]))
    with pytest.raises(TruncationExceededError) as mixed_error:
        lane_geometry.beta_factor(spec, params, mixed)
    assert str(mixed_error.value) == str(scalar_error.value)


@st.composite
def matrix_stacks(draw):
    count = draw(st.integers(min_value=0, max_value=12))
    entry = st.floats(-1e6, 1e6) | st.sampled_from([0.0, -0.0, 1.0, 1e154])
    m = np.array([[[draw(entry) for _ in range(2)] for _ in range(2)]
                  for _ in range(count)]).reshape(count, 2, 2)
    grams = []
    for _ in range(2):
        # the blended norm's Gram matrices, SPD for rho in [0, 1]
        rho = np.array([draw(st.floats(0.0, 1.0)) for _ in range(count)])
        s = np.array([draw(entry) for _ in range(count)])
        g = np.empty((count, 2, 2))
        g[:, 0, 0] = rho + (1.0 - rho) * (1.0 + s * s)
        g[:, 0, 1] = g[:, 1, 0] = (1.0 - rho) * s
        g[:, 1, 1] = 1.0
        grams.append(g)
    return m, grams[0], grams[1]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=300, **COMMON)
@given(case=matrix_stacks())
def test_operator_norm_lanes_match_scalar_norms(case):
    m, g_from, g_to = case
    assert_same_floats(lane_geometry.op_norm_euclidean(m),
                       [op_norm_euclidean(a) for a in m])
    try:
        want = [op_norm_between(a, b, c) for a, b, c in zip(g_from, m, g_to)]
    except ConsistencyError as scalar_error:
        # a Gram matrix with 1 + s*s == s*s has determinant 0.0
        assert "determinant 0.0" in str(scalar_error)
        with pytest.raises(ConsistencyError) as lane_error:
            lane_geometry.op_norm_between(g_from, m, g_to)
        assert str(lane_error.value) == str(scalar_error)
        return
    assert_same_floats(lane_geometry.op_norm_between(g_from, m, g_to), want)
