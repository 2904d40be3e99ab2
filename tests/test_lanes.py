"""The numpy lane kernels against the scalar kernels, bit for bit.

Every float is compared through its int64 bit pattern, so a difference in
the last bit (or in the sign of a zero) fails.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ietlab import kernels, lanes
from ietlab.iet import CountableIET
from ietlab.measure import sample_mu
from ietlab.roof import RoofSpec

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
FLAT = RoofSpec.build(FAMILIES["rotation"], flat=True)


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
    spec = draw(st.sampled_from([SPEC, FLAT]))
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
    flat = 1 if spec.flat else 0
    b, l = spec.widths[idx], spec.lengths[idx]
    r, dr = lanes.roof_eval(off, b, l, flat)
    want = [kernels.roof_eval(float(u), float(spec.widths[i]),
                              float(spec.lengths[i]), flat)
            for i, u in zip(idx, off)]
    assert_same_floats(r, [w[0] for w in want])
    assert_same_floats(dr, [w[1] for w in want])
    no_value, dr_only = lanes.roof_eval(off, b, l, flat, value=False)
    assert no_value is None
    assert_same_floats(dr_only, dr)


def test_roof_lanes_visit_every_piece():
    i = 3
    l, b = float(SPEC.lengths[i]), float(SPEC.widths[i])
    off = np.array([0.2 * b, 0.7 * b, 0.5 * l, l - 0.7 * b, l - 0.2 * b])
    pieces = [kernels.roof_eval(float(u), b, l, 0)[2] for u in off]
    assert pieces == [1, 2, 3, 4, 5]
    r, dr = lanes.roof_eval(off, np.full(5, b), np.full(5, l), 0)
    want = [kernels.roof_eval(float(u), b, l, 0) for u in off]
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


def lyap_outputs(count):
    """``out_a`` to ``out_y``, ``out_fail`` and ``status``, all sentinels."""
    shape = (count, CPS.shape[0])
    rows = [np.full(shape, -7.5) for _ in range(4)]
    rows += [np.full(shape, -7, dtype=np.int64) for _ in range(2)]
    rows += [np.full(shape, -7.5) for _ in range(2)]
    return (*rows, np.full(count, -9, dtype=np.int64),
            np.full(count, -9, dtype=np.int64))


def scalar_lyap(base, roof, idx, off, hei):
    outs = lyap_outputs(idx.shape[0])
    *rows, out_fail, status = outs
    for k in range(idx.shape[0]):
        status[k] = kernels.lyap_orbit(
            base, roof, int(idx[k]), float(off[k]), float(hei[k]), CPS,
            *(a[k] for a in rows), out_fail[k:k + 1])
    return outs


def assert_same_outputs(got, want):
    for g, w in zip(got, want):
        if g.dtype == np.float64:
            assert_same_floats(g, w)
        else:
            assert np.array_equal(g, w)


@pytest.mark.parametrize("name", ["rotation", "swap", "odometer_shallow",
                                  "table"])
def test_lyap_orbits_match_scalar_orbits(name):
    spec = RoofSpec.build(FAMILIES[name])
    base, roof = spec.iet.pack(), spec.pack()
    idx, off, hei = batch_starts(spec, 40, seed=8)
    want = scalar_lyap(base, roof, idx, off, hei)
    for impl in (lanes, kernels):
        got = lyap_outputs(idx.shape[0])
        bad = impl.lyap_orbits(base, roof, idx, off, hei, CPS, *got)
        assert_same_outputs(got, want)
        assert bad == int(np.count_nonzero(want[-1]))
    status, fail = want[-1], want[-2]
    assert status[-2:].tolist() == [kernels.SINGULARITY] * 2
    assert fail[-2:].tolist() == [0, 0]
    if name == "odometer_shallow":
        # lanes leave the truncation at many different steps
        assert np.count_nonzero(status == kernels.TRUNCATION) > 5
        assert len(set(fail[status == kernels.TRUNCATION].tolist())) > 5


@pytest.mark.parametrize("name", ["rotation", "swap", "odometer_shallow",
                                  "table"])
@pytest.mark.parametrize("h_const", [0.0, 3.0])
def test_birkhoff_h_orbits_match_scalar_orbits(name, h_const):
    spec = RoofSpec.build(FAMILIES[name])
    base, roof = spec.iet.pack(), spec.pack()
    idx, off, _ = batch_starts(spec, 40, seed=9)
    count = idx.shape[0]
    want_sum = np.full((count, CPS.shape[0]), -7.5)
    want_status = np.array([
        kernels.birkhoff_h_orbit(base, roof, int(idx[k]), float(off[k]), CPS,
                                 want_sum[k], h_const)
        for k in range(count)])
    for impl in (lanes, kernels):
        out_sum = np.full((count, CPS.shape[0]), -7.5)
        status = np.full(count, -9, dtype=np.int64)
        bad = impl.birkhoff_h_orbits(base, roof, idx, off, CPS, out_sum,
                                     h_const, status)
        assert_same_floats(out_sum, want_sum)
        assert np.array_equal(status, want_status)
        assert bad == int(np.count_nonzero(want_status))
    band_status = want_status[-2:].tolist()
    if h_const > 0.0:
        assert kernels.SINGULARITY not in band_status
    else:
        assert band_status == [kernels.SINGULARITY] * 2
    if name == "odometer_shallow":
        assert np.count_nonzero(want_status == kernels.TRUNCATION) > 5


# ---------------------------------------------------------------------------
# per-point batch kernels: one call on lanes against the scalar loop
# ---------------------------------------------------------------------------

# the scalar kernels divide numpy scalars: 1/u overflows on subnormal u
OVERFLOW = "ignore:overflow encountered in:RuntimeWarning"
SPECS = {name: RoofSpec.build(iet) for name, iet in FAMILIES.items()}
SPECS["flat"] = FLAT


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
            r = kernels.roof_eval(u, float(spec.widths[i]), l,
                                  1 if spec.flat else 0)[0]
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


@pytest.mark.parametrize("count", [0, 1])
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
