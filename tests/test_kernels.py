"""Kernel-level tests: status codes, scalar kernels against python oracles,
and exact agreement of both backends with pinned golden digests.

The parity tests run one digest script in a subprocess, with ``LAB_NUMBA=0``
(pure python) and, when numba is importable, with ``LAB_NUMBA=1`` (JIT).
Every output is hashed byte-for-byte and compared with the committed
``GOLDEN`` digests, so each backend must reproduce them to the last bit.
"""

import inspect
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ietlab import kernels
from ietlab.errors import LabError
from ietlab.flow import cocycle
from ietlab.geometry import canonicalize
from ietlab.iet import CountableIET, FiberPoint
from ietlab.measure import _code_odometer, coded_orbit_stream
from ietlab.roof import RoofSpec

# ---------------------------------------------------------------------------
# constants and scalar kernels
# ---------------------------------------------------------------------------


def test_family_and_status_codes_are_stable():
    assert (kernels.FAM_ROTATION, kernels.FAM_SWAP,
            kernels.FAM_ODOMETER, kernels.FAM_EXPLICIT) == (0, 1, 2, 3)
    assert (kernels.OK, kernels.SINGULARITY,
            kernels.TRUNCATION, kernels.INCONSISTENT) == (0, 1, 2, 3)


def test_smooth_step_kernel_saturates():
    assert kernels.smooth_step(-1.0) == (1.0, 0.0)
    assert kernels.smooth_step(0.0) == (1.0, 0.0)
    assert kernels.smooth_step(1.0) == (0.0, 0.0)
    assert kernels.smooth_step(2.0) == (0.0, 0.0)
    mid, slope = kernels.smooth_step(0.5)
    assert mid == pytest.approx(0.5, rel=1e-12)
    assert slope < 0.0


def test_dyadic_block_index_and_offset_exact():
    # (block index, offset within the block), exact in floats
    assert kernels.dyadic_block(0.0) == (0, 0.0)
    assert kernels.dyadic_block(0.2) == (0, 0.2)
    assert kernels.dyadic_block(0.5) == (1, 0.0)
    assert kernels.dyadic_block(0.7) == (1, 0.7 - 0.5)
    assert kernels.dyadic_block(0.75) == (2, 0.0)
    assert kernels.dyadic_block(0.9) == (3, 0.9 - 0.875)


def test_iet_length_matches_wrapper():
    for iet in (CountableIET.block_rotation(), CountableIET.block_swap(),
                CountableIET.von_neumann_kakutani()):
        for i in (0, 1, 2, 5, 10):
            assert kernels.iet_length(iet.pack(), i) == iet.length(i)


# ---------------------------------------------------------------------------
# time-one map semantics
# ---------------------------------------------------------------------------


def test_time_one_under_roof_climbs(golden_spec):
    iet = golden_spec.iet
    u = 0.5 * iet.length(0)  # flat middle: r = 1 exactly
    i, v, y, inc, crossed, st = kernels.time_one(
        iet.pack(), golden_spec.pack(), 0, u, -0.5)
    assert (i, v, crossed, st) == (0, u, 0, kernels.OK)
    assert y == 0.5
    assert inc == 0.0


def test_time_one_crossing_matches_python_step(golden_spec):
    iet = golden_spec.iet
    u = 0.5 * iet.length(0)
    i, v, y, inc, crossed, st = kernels.time_one(
        iet.pack(), golden_spec.pack(), 0, u, 0.3)
    assert (crossed, st) == (1, kernels.OK)
    stepped = iet.step(iet.locate(u))
    assert (i, v) == (stepped.index, stepped.offset)
    assert y == pytest.approx(0.3 + 1.0 - 2.0, rel=1e-15)  # r == 1 here
    assert inc == 0.0  # flat middle has r' == 0


def test_time_one_singularity_band(golden_spec):
    iet = golden_spec.iet
    band = golden_spec.band
    u = 0.5 * band * iet.length(0)
    i, v, y, inc, crossed, st = kernels.time_one(
        iet.pack(), golden_spec.pack(), 0, u, 0.0)
    assert st == kernels.SINGULARITY
    assert (i, v, y) == (0, u, 0.0)


def test_canonicalize_k_budget_exhaustion(golden_spec):
    iet = golden_spec.iet
    u = 0.5 * iet.length(0)
    args = (iet.pack(), golden_spec.pack())
    i, v, y, st = kernels.canonicalize_k(*args, 0, u, 50.0, 3)
    assert st == kernels.INCONSISTENT
    i, v, y, st = kernels.canonicalize_k(*args, 0, u, 50.0, 1000)
    assert st == kernels.OK


@pytest.mark.parametrize("family", ["golden", "shallow_odometer"])
def test_lyap_orbit_keeps_the_argument_names_the_tracer_reads(
        monkeypatch, golden_spec, family):
    """perfbench's tracer binds each ``kernels.lyap_orbit`` call to the
    kernel's signature and counts its steps from ``cps`` (a clean orbit) or
    ``out_fail`` (a failed one), by name: a renamed parameter would break
    every traced call."""
    if family == "golden":
        spec, steps = golden_spec, 300
    else:
        # leaves the six-interval truncation long before 10^5 steps
        spec = RoofSpec.build(CountableIET.von_neumann_kakutani(n_trunc=6))
        steps = 100000
    calls = []
    run = kernels.lyap_orbit

    def record(*args, **kwargs):
        status = run(*args, **kwargs)
        calls.append((args, kwargs, status))
        return status

    monkeypatch.setattr(kernels, "lyap_orbit", record)
    z = canonicalize(spec, spec.iet.locate(0.3), 0.0)
    try:
        cocycle(spec, z, steps)
    except LabError:
        pass
    (args, kwargs, status), = calls
    bound = inspect.signature(run).bind(*args, **kwargs).arguments
    if family == "golden":
        assert status == kernels.OK
        assert bound["cps"].tolist() == [steps]
    else:
        assert status == kernels.TRUNCATION
        assert 0 < bound["out_fail"][0] < steps


def test_code_orbit_reports_truncation():
    iet = CountableIET.von_neumann_kakutani(n_trunc=4)
    out = np.empty(64, dtype=np.int64)
    p = iet.locate(0.0)
    status = kernels.code_orbit(iet.pack(), p.index, p.offset, 16, out)
    assert status == kernels.TRUNCATION


def reference_code_orbit(base, i, u, alphabet, out):
    """``code_orbit`` as one loop over ``iet_step``, whatever the family."""
    for step in range(out.shape[0]):
        if i < alphabet - 1:
            out[step] = i
        else:
            out[step] = alphabet - 1
        j, v, st = kernels.iet_step(base, i, u)
        if st != kernels.OK:
            return st
        i = j
        u = v
    return kernels.OK


def _raised(table):
    """A table with every translation raised by 0.5: its orbits reach the
    tail (TRUNCATION at a shallow truncation) or map past 1 (INCONSISTENT)."""
    base = table.pack()
    return base[:3] + (base[3] + 0.5,) + base[4:7] + (6,)


TABLE = [(0.0, 0.3), (0.2, 0.3), (0.5, -0.5), (0.8, 0.0)]
CODED_BASES = {
    "rotation": CountableIET.block_rotation().pack(),
    "rotation_shallow": CountableIET.block_rotation(n_trunc=7).pack(),
    # 1 - (1 - 0.1) is not 0.1 in floats, and the left piece, 0.9 of its
    # block, keeps most orbits in it for a step
    "rotation_theta": CountableIET.block_rotation(theta=0.1,
                                                  n_trunc=9).pack(),
    "swap": CountableIET.block_swap().pack(),
    "swap_shallow": CountableIET.block_swap(n_trunc=5).pack(),
    "odometer": CountableIET.von_neumann_kakutani().pack(),
    "odometer_shallow": CountableIET.von_neumann_kakutani(n_trunc=6).pack(),
    "table": CountableIET.explicit_table(TABLE, n_trunc=16).pack(),
    "table_raised": _raised(CountableIET.explicit_table(TABLE, n_trunc=16)),
}


@st.composite
def coded_orbits(draw):
    base = CODED_BASES[draw(st.sampled_from(sorted(CODED_BASES)))]
    ntr = base[-1]
    # a few starts lie at or past the truncation, which only a caller's
    # own start can do
    i = draw(st.integers(min_value=0, max_value=ntr + 1))
    l = kernels.iet_length(base, i)
    kind = draw(st.sampled_from(["uniform", "edge", "wild"]))
    if kind == "uniform":
        u = draw(st.floats(0.0, 1.0, exclude_max=True)) * l
    elif kind == "edge":
        offs = [0.0, 0.5 * l, float(np.nextafter(l, 0.0))]
        if base[0] == kernels.FAM_ROTATION:
            block = math.ldexp(1.0, -(i >> 1) - 1)
            cut = (1.0 - base[1]) * block
            edge = cut - (block - cut) if i % 2 == 0 else cut
            offs += [edge, float(np.nextafter(edge, 0.0)),
                     float(np.nextafter(edge, 1.0))]
        u = draw(st.sampled_from(offs))
    else:
        u = draw(st.floats(-2.0, 2.0))
    alphabet = draw(st.sampled_from([2, 3, 16, 64]))
    length = draw(st.integers(min_value=0, max_value=300))
    return base, i, u, alphabet, length


@settings(max_examples=500, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=coded_orbits())
def test_code_orbit_matches_a_loop_over_iet_step(case):
    base, i, u, alphabet, length = case
    got = np.full(length, -1, dtype=np.int64)
    want = np.full(length, -1, dtype=np.int64)
    st_got = kernels.code_orbit(base, i, u, alphabet, got)
    assert st_got == reference_code_orbit(base, i, u, alphabet, want)
    assert np.array_equal(got, want)


# ``measure._code_odometer``: the odometer's coding as a bit-reversed counter

#: R = 2^53 - 1 is the state 1 - 2^-53, whose step leaves the 2^-53 grid.
WRAP = (1 << 53) - 1


def reversed53(v):
    return int(format(v, "053b")[::-1], 2)


def counter_start(r):
    """The odometer's fiber point whose 53 reversed bits are ``r``."""
    return kernels.dyadic_block(math.ldexp(float(reversed53(r)), -53))


def counter_of(i, u):
    """The counter value of a fiber point on the 2^-53 grid."""
    return reversed53(int(math.ldexp(1.0 - math.ldexp(1.0, -i) + u, 53)))


def assert_counter_ran(base, i, u, alphabet, length):
    """The counter ran and matched the reference loop; its status and
    symbols (-1 where none was written)."""
    got = np.full(length, -1, dtype=np.int64)
    want = np.full(length, -1, dtype=np.int64)
    st_got = _code_odometer(base, i, u, alphabet, got)
    assert st_got is not None
    assert st_got == reference_code_orbit(base, i, u, alphabet, want)
    assert np.array_equal(got, want)
    return st_got, got


def assert_fell_back(base, i, u, alphabet, length):
    out = np.full(length, -1, dtype=np.int64)
    assert _code_odometer(base, i, u, alphabet, out) is None
    assert np.all(out == -1)


@st.composite
def counter_orbits(draw):
    ntr = draw(st.integers(min_value=2, max_value=64))
    if draw(st.booleans()):
        # any index on the grid, some past the truncation
        i = draw(st.integers(min_value=0, max_value=52))
        u = math.ldexp(draw(st.integers(0, (1 << (52 - i)) - 1)), -53)
    else:
        # counter values a few thousand steps before 1 - 2^-53
        i, u = counter_start(WRAP - draw(st.integers(1, 4000)))
    alphabet = draw(st.integers(min_value=2, max_value=20))
    length = draw(st.one_of(st.integers(min_value=0, max_value=64),
                            st.integers(min_value=1000, max_value=3000)))
    return CountableIET.von_neumann_kakutani(n_trunc=ntr).pack(), i, u, \
        alphabet, length


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=counter_orbits())
def test_odometer_counter_matches_a_loop_over_iet_step(case):
    base, i, u, alphabet, length = case
    if counter_of(i, u) + length + 1 >= WRAP:
        assert_fell_back(base, i, u, alphabet, length)
    else:
        assert_counter_ran(base, i, u, alphabet, length)


def test_odometer_counter_next_to_one():
    base = CountableIET.von_neumann_kakutani().pack()
    # 1 - 2^-53 is the counter's last state, R = 2^53 - 1, so it falls
    # back; 1 - k 2^-53 for 2 <= k <= 40 has a zero among its last six
    # bits, which are the counter's top six, so it lies 2^47 or more
    # steps before the end of the count
    assert_fell_back(base, *kernels.dyadic_block(1.0 - 2.0 ** -53), 16, 300)
    for k in range(2, 41):
        i, u = kernels.dyadic_block(1.0 - math.ldexp(k, -53))
        assert counter_of(i, u) <= WRAP - (1 << 47)
        assert_counter_ran(base, i, u, 16, 300)
    # the counter values just before it: a start falls back exactly when
    # its n steps reach R = 2^53 - 2, next to the state that leaves the grid
    n = 20
    for j in range(1, 41):
        i, u = counter_start(WRAP - j)
        if j <= n + 1:
            assert_fell_back(base, i, u, 16, n)
        else:
            assert assert_counter_ran(base, i, u, 16, n)[0] == kernels.OK


def test_odometer_counter_falls_back_off_the_grid_and_off_the_odometer():
    for base in (CountableIET.von_neumann_kakutani().pack(),
                 CountableIET.von_neumann_kakutani(n_trunc=6).pack()):
        for i in range(min(base[-1], 8)):
            l = kernels.iet_length(base, i)
            # the upper ends of the first intervals lie off the grid
            assert_fell_back(base, i, float(np.nextafter(l, 0.0)), 16, 400)
            for u in (0.0, 0.5 * l):
                assert_counter_ran(base, i, u, 16, 400)
        # an offset outside its interval, an index beyond the grid's
        assert_fell_back(base, 3, kernels.iet_length(base, 3), 16, 400)
        assert_fell_back(base, 53, 0.0, 16, 400)
        assert_fell_back(base, 0, -0.25, 16, 400)
    for name in ("rotation", "swap", "table"):
        assert_fell_back(CODED_BASES[name], 0, 0.0, 16, 400)


@pytest.mark.parametrize("ntr, alphabet, length, stop", [
    (6, 16, 50, 1),                      # leaves at the first step
    (20, 17, (1 << 16) + 7, 1 << 16),    # at the period of the deepest level
    (6, 16, 50, 50),                     # at the last step
    (6, 16, 50, 51),                     # one step after the last
    (6, 16, 0, 1),                       # no symbols
])
def test_odometer_counter_truncates_where_the_kernel_does(ntr, alphabet,
                                                          length, stop):
    base = CountableIET.von_neumann_kakutani(n_trunc=ntr).pack()
    # the first state past r with ntr trailing ones is r + stop
    i, u = counter_start((5 << ntr) - 1 - stop)
    status, got = assert_counter_ran(base, i, u, alphabet, length)
    written = min(stop, length)
    assert status == (kernels.TRUNCATION if stop <= length else kernels.OK)
    assert np.all(got[:written] >= 0) and np.all(got[written:] == -1)


def test_coded_orbit_stream_codes_odometer_starts_as_a_counter(monkeypatch):
    calls = []
    code_orbit = kernels.code_orbit

    def counted(*args):
        calls.append(args[0][0])
        return code_orbit(*args)

    monkeypatch.setattr(kernels, "code_orbit", counted)
    vnk = CountableIET.von_neumann_kakutani()
    # every random start is on the grid, even those drawn again
    for seed in range(3):
        coded_orbit_stream(vnk, 5000, seed=seed)
    coded_orbit_stream(CountableIET.von_neumann_kakutani(n_trunc=6), 62,
                       seed=6)
    assert calls == []
    # a caller's start off the grid takes the kernel, as do other families
    off_grid = FiberPoint(2, 0.3 * vnk.length(2))
    s = coded_orbit_stream(vnk, 500, start=off_grid)
    want = np.empty(500, dtype=np.int64)
    assert reference_code_orbit(vnk.pack(), 2, off_grid.offset, 16,
                                want) == kernels.OK
    assert np.array_equal(s.symbols, want)
    coded_orbit_stream(CountableIET.block_rotation(), 100, seed=1)
    assert calls == [kernels.FAM_ODOMETER, kernels.FAM_ROTATION]


def test_base_steps_report_truncation():
    # the base steps report leaving the truncation, with the index reached
    odometer = CountableIET.von_neumann_kakutani(n_trunc=6).pack()
    j, v, st = kernels.iet_step(odometer, 0, 0.49)  # 0.99 lies in interval 6
    assert (j, st) == (6, kernels.TRUNCATION)
    j, v, st = kernels.iet_step_inv(odometer, 0, 0.001)
    assert (j, st) == (9, kernels.TRUNCATION)
    rotation = CountableIET.block_rotation(n_trunc=5)  # interval 5 cut off
    p = rotation.pack()
    j, v, st = kernels.iet_step(p, 4, 0.99 * rotation.length(4))
    assert (j, st) == (5, kernels.TRUNCATION)
    assert kernels.iet_step(p, 3, 0.0)[2] == kernels.OK


def test_base_step_batch_matches_python_steps(golden_iet):
    rng = np.random.default_rng(21)
    pts = [golden_iet.locate(float(x)) for x in rng.random(500)]
    idx = np.array([p.index for p in pts], dtype=np.int64)
    off = np.array([p.offset for p in pts], dtype=np.float64)
    status = np.empty(500, dtype=np.int64)
    bad = kernels.base_step_batch(golden_iet.pack(), idx, off, status)
    assert bad == 0
    assert np.all(status == kernels.OK)
    for k, p in enumerate(pts):
        q = golden_iet.step(p)
        assert (int(idx[k]), float(off[k])) == (q.index, q.offset)


# ---------------------------------------------------------------------------
# golden digests and JIT vs pure-python parity
# ---------------------------------------------------------------------------

# The script drives the kernels through the public API and through the
# kernel signatures other modules rely on (``code_orbit``, the batch
# kernels).  Each entry is a SHA-256 over exact bytes
# (arrays) or over JSON with shortest round-trip floats, so any change in
# the last bit of any output changes the digest.
DIGEST_SCRIPT = r"""
import hashlib
import json
import os

import numpy as np

from ietlab import kernels
from ietlab.errors import LabError
from ietlab.flow import (aaronson_average, aaronson_experiment, cocycle,
                         cocycle_checkpoints, lyapunov_experiment)
from ietlab.geometry import MetricParams, canonicalize
from ietlab.iet import CountableIET, FiberPoint
from ietlab.measure import (coded_orbit_stream, invariance_check, sample_mu,
                            sample_starts)
from ietlab.roof import RoofSpec


def digest(obj):
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


def array_digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def outcome(fn):
    try:
        return fn()
    except LabError as exc:
        return [type(exc).__name__, str(exc)]


iet = CountableIET.block_rotation()
spec = RoofSpec.build(iet)
shallow = CountableIET.von_neumann_kakutani(n_trunc=6)
shallow_spec = RoofSpec.build(shallow)
out = {"numba": bool(kernels.NUMBA_ENABLED)}

vals = []
for i in (0, 1, 4):
    l = iet.length(i)
    for f in (0.01, 0.1, 0.37, 0.5, 0.9, 0.99):
        rv = spec.value_raw(FiberPoint(i, f * l))
        vals.append((rv.value, rv.derivative))
out["roof"] = digest(vals)

families = {
    "rotation": iet,
    "swap": CountableIET.block_swap(),
    "odometer": CountableIET.von_neumann_kakutani(),
    "table": CountableIET.explicit_table(
        [(0.0, 0.3), (0.2, 0.3), (0.5, -0.5), (0.8, 0.0)], n_trunc=16),
}
for name, base in families.items():
    p = base.locate(0.3)
    idxs, offs = [], []
    for step in (base.step, base.step_back):
        for _ in range(2000):
            p = step(p)
            idxs.append(p.index)
            offs.append(p.offset)
    out["orbit_" + name] = array_digest(np.asarray(idxs, dtype=np.int64),
                                        np.asarray(offs, dtype=np.float64))

starts = sample_mu(spec, 20, seed=3)
rows = []
for k in range(20):
    def run(z=starts.point(k)):
        mats, pts = cocycle_checkpoints(spec, z, [100, 300, 1000])
        return [[c.m21, c.crossings] for c in mats] \
            + [[q.index, q.offset, q.height] for q in pts]
    rows.append(outcome(run))
out["cocycle"] = digest(rows)

rng = np.random.default_rng(11)
sums = []
for _ in range(10):
    x = iet.locate(float(rng.random()))
    sums.append(outcome(lambda: aaronson_average(spec, x, 5000)))
out["aaronson"] = digest(sums)

for name, s, count in (("invariance", spec, 20000),
                       ("invariance_shallow", shallow_spec, 5000)):
    rep = invariance_check(s, count=count, seed=5)
    out[name] = digest([rep.used, rep.discards]
                       + [[r.freq_pre, r.freq_post] for r in rep.rows])

# the time-one step on sampled points of every family: the first points
# are moved into the exclusion band, and the six-interval odometer's
# crossings leave its truncation
stepped, step_codes = [], set()
for base in (*families.values(), shallow):
    s = RoofSpec.build(base)
    pts = sample_mu(s, 3000, seed=7)
    idx, off, hei = pts.idx, pts.off, pts.hei
    for k, f in enumerate((0.0, 0.5 * s.band, 1.0 - 0.5 * s.band)):
        off[k] = f * s.lengths[idx[k]]
    status = np.full(idx.shape[0], -1, dtype=np.int64)
    r = np.empty(idx.shape[0])
    kernels.batch_kernels().roof_eval_batch(s.pack(), idx, off, r,
                                            np.empty(idx.shape[0]))
    bad = kernels.batch_kernels().flow_time_one_batch(
        base.pack(), s.pack(), idx, off, hei, r, status)
    stepped.append(array_digest(idx, off, hei, status) + f":{bad}")
    step_codes.update(status.tolist())
out["time_one"] = digest(stepped)
out["time_one_statuses"] = sorted(step_codes)

# the roof on sampled points, and at both ends of an interval
pts = sample_mu(spec, 3000, seed=8)
off = pts.off
off[0] = 0.0
off[1] = spec.lengths[pts.idx[1]]
r = np.full(off.shape[0], -7.5)
dr = np.full(off.shape[0], -7.5)
kernels.batch_kernels().roof_eval_batch(spec.pack(), pts.idx, off, r, dr)
out["roof_batch"] = array_digest(r, dr)

for name, s in (("samples", spec), ("samples_shallow", shallow_spec)):
    batch = sample_mu(s, 20000, seed=5)
    out[name] = array_digest(batch.idx, batch.off, batch.hei) \
        + f":{batch.step_discards}"

# the starts of the Lyapunov experiment, one per (seed, sample, attempt),
# on every family and the six-interval odometer, where some lower-side
# steps leave the truncation and are drawn again
starts, start_discards = [], 0
start_specs = [RoofSpec.build(base) for base in families.values()] + [
    shallow_spec]
for s, start_spec in enumerate(start_specs):
    for k in range(30):
        for a in range(10):
            batch = sample_mu(start_spec, 1, (s, k, a))
            start_discards += batch.step_discards
            z = batch.point(0)
            starts.append([z.index, z.offset, z.height])
out["starts"] = digest(starts)
out["starts_step_discards"] = start_discards
# the same starts drawn in one batch per spec
batched = []
for s, start_spec in enumerate(start_specs):
    seeds = [(s, k, a) for k in range(30) for a in range(10)]
    batched += [[z.index, z.offset, z.height]
                for z in sample_starts(start_spec, seeds)]
out["starts_batched"] = digest(batched)

# the odometer at the entropy command's length for three seeds, and the
# six-interval odometer, whose orbits leave the truncation within 63 steps,
# so that some starts are drawn again and at 63 symbols every attempt fails
out["coded"] = digest([
    array_digest(coded_orbit_stream(base, 20000, seed=2).symbols)
    for base in (iet, families["odometer"])] + [
    array_digest(coded_orbit_stream(families["odometer"], 400000,
                                    seed=seed).symbols)
    for seed in range(3)] + [
    outcome(lambda: array_digest(coded_orbit_stream(
        shallow, length, seed=seed).symbols))
    for length in (40, 62, 63) for seed in range(8)])

# code_orbit itself on every family, from the ends and branch edges of the
# first intervals (the odometer's interval 0 among them), with alphabets 2
# and 16; the shallow truncations are left at known steps, the rotation by
# 0.1 rounds 1 - theta, and the table with its translations raised by 0.5
# maps into its tail or past 1
raised = families["table"].pack()
raised = raised[:3] + (raised[3] + 0.5,) + raised[4:]
coded_bases = [b.pack() for b in families.values()] + [
    CountableIET.block_rotation(n_trunc=7).pack(),
    CountableIET.block_rotation(theta=0.1, n_trunc=9).pack(),
    CountableIET.block_swap(n_trunc=5).pack(),
    shallow.pack(),
    raised[:7] + (6,)]


def coded_starts(base, i):
    l = kernels.iet_length(base, i)
    offs = [0.0, 0.5 * l, float(np.nextafter(l, 0.0))]
    if base[0] == kernels.FAM_ROTATION:
        block = float(np.ldexp(1.0, -(i >> 1) - 1))
        cut = (1.0 - base[1]) * block
        edge = cut - (block - cut) if i % 2 == 0 else cut
        offs += [edge, float(np.nextafter(edge, 0.0))]
    return [u for u in offs if 0.0 <= u < l]


coded, coded_codes = [], set()
for base in coded_bases:
    for i in range(min(base[-1], 8)):
        for u in coded_starts(base, i):
            for alphabet in (2, 16):
                sym = np.full(400, -1, dtype=np.int64)
                st = kernels.code_orbit(base, i, u, alphabet, sym)
                coded.append(array_digest(sym) + f":{st}")
                coded_codes.add(int(st))
out["coded_kernel"] = digest(coded)
out["coded_kernel_statuses"] = sorted(coded_codes)

rng = np.random.default_rng(17)
canon = []
for _ in range(300):
    base = iet.locate(float(rng.random()))
    y = float(rng.uniform(-6.0, 6.0))
    canon.append(outcome(lambda: list(canonicalize(spec, base, y))))
out["canonicalize"] = digest(canon)

z = canonicalize(shallow_spec, shallow.locate(0.3), 0.0)
out["truncation"] = digest([
    outcome(lambda: cocycle(shallow_spec, z, 100000)),
    outcome(lambda: aaronson_average(shallow_spec, z.base, 100000)),
    outcome(lambda: list(canonicalize(shallow_spec, z.base, 500.0))),
    outcome(lambda: coded_orbit_stream(shallow, 1000, start=z.base)),
    outcome(lambda: shallow.step(FiberPoint(0, 0.49))),
    outcome(lambda: shallow.step_back(FiberPoint(0, 0.001))),
])



def lyapunov_rows(*args, **kw):
    res = lyapunov_experiment(*args, **kw)
    return [res.discarded_trajectories, res.total_steps] + [
        [r.n, r.value_e, r.value_delta, r.start.index, r.start.offset,
         r.start.height, r.seed, r.crossings] for r in res.rows]


def aaronson_rows(*args, **kw):
    res = aaronson_experiment(*args, **kw)
    return [res.discarded_trajectories, res.total_steps] + [
        [r.n, r.value, r.start.index, r.start.offset, r.seed]
        for r in res.rows]


params = MetricParams(delta=0.25)
exps = []
os.environ["LAB_THREADS"] = "1"
for base in families.values():
    s = RoofSpec.build(base)
    exps.append(outcome(lambda: lyapunov_rows(s, params, 1000, 8, 4)))
    exps.append(outcome(lambda: aaronson_rows(s, 1000, 8, 4)))
# orbits leave the truncation now and then, so some attempts are redrawn
deep = RoofSpec.build(CountableIET.von_neumann_kakutani(n_trunc=11))
shallow_runs = [lyapunov_rows(deep, params, 3000, 12, 6),
                aaronson_rows(deep, 1000, 12, 6)]
exps.extend(shallow_runs)
os.environ["LAB_THREADS"] = "3"
threaded_runs = [lyapunov_rows(deep, params, 3000, 12, 6),
                 aaronson_rows(deep, 1000, 12, 6)]
exps.extend(threaded_runs)
# every attempt leaves a six-interval truncation, so the experiments give up
exps.append(outcome(lambda: lyapunov_rows(shallow_spec, params, 1000, 3, 6)))
exps.append(outcome(lambda: aaronson_rows(shallow_spec, 1000, 3, 6)))
out["experiments"] = digest(exps)
out["experiments_discards"] = [run[0] for run in shallow_runs]
out["experiments_threads_agree"] = threaded_runs == shallow_runs

print(json.dumps(out))
"""

#: Digests of the pure-python path, pinned; the JIT path must hit them too.
GOLDEN = {
    "roof":
        "6a1d6c82318af8e5f9f7d15f4f092af24db8bfa0fc0904433e2a9d06ddd0ae4a",
    "orbit_rotation":
        "867bf0f0127658f2e28113f22270e54410c228f2dd1483dbb2bacafc70348452",
    "orbit_swap":
        "ff567a4d21a460a6702da7443886db823ddb93ae4b725a1c96d8020488299cd0",
    "orbit_odometer":
        "452aedbdb00df112b641ed34048be2636bfec0d34acf5b1936b88c42db60931b",
    "orbit_table":
        "6ff933083385795d21274e0cbaf726825370e3caf221aa2edd935e28bb22831e",
    "cocycle":
        "c10235479a8af30d0b1a007c72765744cd54cd137cf1ae165a7ce3373f0aa01a",
    "aaronson":
        "6a4e85a4fedbecc2a745a004419fc1e2a3bfe1b53bf8320dcba04343e4472d28",
    "invariance":
        "21224bdf87e6090e0ebe6650e29d7c8bc461b5823ce3fceebad85ebea27b0e57",
    "invariance_shallow":
        "61b45363cb9f1af7d10a416cea9a778e3fbbe679e069d8deb3ca92bf0e94bf5d",
    "samples":
        "fba9a091db3906a1ace82790f7f901f1d7245aad90677735744258de44fdcac6:0",
    "samples_shallow":
        "e3ea4274052b32cad703b00a8f476f4f764c4b7e02fe12eaf3ccad5eb9558d72:433",
    "starts":
        "1b767617b005afb6dba84ddec3ca71d94fb3eaf7f154d2432d548913b7bde259",
    "coded":
        "64fa557e64bc24260db0a9e4e0a125788979273d4e7cd663a7da07398e1a224b",
    "coded_kernel":
        "af1953ac0b40d2262dfe979a1f4f9b25d77783f8c9d7aaab0c2e4c690b16c931",
    "canonicalize":
        "bc904d5a51734bc9513a2f3131a4dadb1c064a819a2a7e5a97e990744ef1a952",
    "truncation":
        "a9dd10660177531b977c8567a58b369024e9e8026d49fa99fcb49e58dc8e62ce",
    "experiments":
        "793efc5d425515e241998a26737b83efdd7bd8154e1c3c1f0301dc2a33e2a646",
    "time_one":
        "115d87224d8c9b18f412065f622b9e8ba8cea01b2d1ee85a575b125146a67165",
    "roof_batch":
        "c6307051a17c855f14be40a1fa835332ffa19025b791a6085b8aa1f73ea9ec20",
}


def _run_digest_subprocess(lab_numba: str) -> dict:
    env = dict(os.environ, LAB_NUMBA=lab_numba)
    proc = subprocess.run([sys.executable, "-c", DIGEST_SCRIPT],
                          capture_output=True, text=True, env=env,
                          timeout=300, check=True)
    return json.loads(proc.stdout)


def _assert_golden(got: dict) -> None:
    assert set(GOLDEN) <= set(got)
    # the shallow experiments redraw some starts, and threads change nothing
    assert min(got["experiments_discards"]) > 0
    assert got["experiments_threads_agree"] is True
    # some starts on the six-interval odometer are drawn again, and the
    # batched draw gives every start of the draws one by one
    assert got["starts_step_discards"] > 0
    assert got["starts_batched"] == GOLDEN["starts"]
    # the stepped points reach every status a consistent base map allows
    assert set(got["time_one_statuses"]) == {
        kernels.OK, kernels.SINGULARITY, kernels.TRUNCATION}
    assert set(got["coded_kernel_statuses"]) == {
        kernels.OK, kernels.TRUNCATION, kernels.INCONSISTENT}
    for key, want in GOLDEN.items():
        assert got[key] == want, key


def test_pure_python_path_matches_jit_bit_for_bit():
    """The pure-python path reproduces the pinned digests bit for bit.

    The digests are the reference both backends must reproduce, so this
    test bites whether or not numba is installed.
    """
    pure = _run_digest_subprocess("0")
    assert pure["numba"] is False
    _assert_golden(pure)


@pytest.mark.skipif(not kernels._HAVE_NUMBA,
                    reason="numba is not importable, so there is no JIT "
                           "path to compare with the pinned digests")
def test_jit_path_matches_golden_digests():
    jit = _run_digest_subprocess("1")
    assert jit["numba"] is True
    _assert_golden(jit)


def test_numba_flag_spellings():
    for value, expect in (("off", False), ("FALSE", False), ("no", False)):
        env = dict(os.environ, LAB_NUMBA=value)
        proc = subprocess.run(
            [sys.executable, "-c",
             "from ietlab import kernels; print(kernels.NUMBA_ENABLED)"],
            capture_output=True, text=True, env=env, timeout=120, check=True)
        assert proc.stdout.strip() == str(expect)
