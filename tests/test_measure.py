"""Tests for sampling, invariance checks, entropy estimators, and the
time-change formula.

Statistical assertions use 3-4 sigma tolerances around closed-form
probabilities; everything else is exact or oracle-backed (scipy quadrature
for roof-weighted marginals, explicit python orbit loops for the coding).
"""

import itertools
import logging
import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate

from ietlab import kernels, lanes, measure
from ietlab.errors import (
    ConsistencyError,
    ConstraintViolationError,
    InsufficientDataError,
    TruncationExceededError,
)
from ietlab.iet import CountableIET, FiberPoint
from ietlab.measure import (
    DRAWS_PER_ROUND,
    MIN_EFFICIENCY,
    SAMPLE_CHUNK,
    InvarianceRow,
    Region,
    SymbolStream,
    abramov,
    bernoulli_stream,
    block_entropy,
    coded_orbit_stream,
    entropy_estimate,
    interval_lefts,
    invariance_check,
    lz78_rate,
    plugin_block_entropy,
    read_symbols,
    sample_mu,
    standard_boxes,
    total_mass,
    write_symbols,
)
from ietlab.roof import RoofSpec

from whole_rounds import sample_mu_whole_rounds

SAMPLES = 200_000


def shannon(p: float) -> float:
    return -p * math.log(p) - (1.0 - p) * math.log(1.0 - p)


# ---------------------------------------------------------------------------
# total mass
# ---------------------------------------------------------------------------


def test_total_mass_identity(golden_spec):
    rep = total_mass(golden_spec)
    assert rep.total_mass == rep.integral_r + rep.integral_r_alt
    assert abs(rep.integral_r - rep.integral_r_alt) < 1e-8
    assert rep.identity_gap <= 1e-8
    assert rep.normalization == 1.0 / rep.total_mass
    assert rep.tail_bound < 1e-8
    d = rep.as_dict()
    assert set(d) == {"integral_r", "integral_r_alt", "total_mass",
                      "normalization", "tail_bound", "identity_gap"}
    assert all(isinstance(v, float) for v in d.values())


# ---------------------------------------------------------------------------
# exact sampling
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def batch(golden_spec):
    return sample_mu(golden_spec, SAMPLES, seed=42)


def test_sampler_shapes_support_and_efficiency(golden_spec, batch):
    assert len(batch) == SAMPLES
    assert batch.accepted == SAMPLES
    assert batch.proposals >= batch.accepted
    assert batch.efficiency >= MIN_EFFICIENCY

    lengths, _, band = golden_spec.pack()
    assert np.all(batch.idx >= 0)
    assert np.all(batch.idx < golden_spec.iet.n_trunc)
    l = lengths[batch.idx]
    assert np.all(batch.off > band * l)
    assert np.all(batch.off < l * (1.0 - band))

    # heights live in the fiber: [0, r(x)) above, (-r(T^-1 x), 0) below
    rng = np.random.default_rng(0)
    for k in rng.integers(0, SAMPLES, size=400):
        p = batch.point(int(k))
        r_here = golden_spec.value_raw(p.base).value
        if p.height >= 0.0:
            assert p.height < r_here
        else:
            back = golden_spec.iet.step_back(p.base)
            assert -golden_spec.value_raw(back).value < p.height


def test_sampler_height_sign_balance(batch):
    # the fiber side is a fair coin
    p_hat = float(np.mean(batch.hei >= 0.0))
    assert abs(p_hat - 0.5) <= 3.0 * 0.5 / math.sqrt(SAMPLES)


def test_sampler_central_band_mass(golden_spec, batch):
    # r >= 1 puts the band |y| < 1/2 inside every fiber, so its mass is
    # exactly (base length) * 1, i.e. probability 1 / total_mass.
    p_true = 1.0 / total_mass(golden_spec).total_mass
    p_hat = float(np.mean(np.abs(batch.hei) < 0.5))
    sigma = math.sqrt(p_true * (1.0 - p_true) / SAMPLES)
    assert abs(p_hat - p_true) <= 3.0 * sigma


def test_sampler_base_uniform_in_low_band(golden_spec, batch):
    # conditioned on 0 <= y < 1/2 the base coordinate is exactly Lebesgue
    mass = total_mass(golden_spec).total_mass
    xs = interval_lefts(golden_spec.iet)[batch.idx] + batch.off
    low = (batch.hei >= 0.0) & (batch.hei < 0.5)
    for c, d in [(0.0, 0.25), (0.3, 0.55), (0.6, 1.0)]:
        p_true = (d - c) * 0.5 / mass
        p_hat = float(np.mean(low & (xs >= c) & (xs < d)))
        sigma = math.sqrt(p_true * (1.0 - p_true) / SAMPLES)
        assert abs(p_hat - p_true) <= 4.0 * sigma


def test_sampler_block_marginals_match_quadrature(golden_spec, batch):
    # Each dyadic block is invariant under the base map, so both fiber
    # sides give the block probability (integral of r over the block) / M.
    lengths, bs, _ = golden_spec.pack()
    mass = total_mass(golden_spec).total_mass
    xs = interval_lefts(golden_spec.iet)[batch.idx] + batch.off
    upper = batch.hei >= 0.0
    for j in (0, 1, 2):
        r_int = 0.0
        for i in (2 * j, 2 * j + 1):
            l, b = float(lengths[i]), float(bs[i])
            val, err = integrate.quad(
                lambda u, i=i: golden_spec.value_raw(FiberPoint(i, u)).value,
                0.0, l, points=[0.5 * b, b, l - b, l - 0.5 * b], limit=400)
            assert err < 1e-9
            r_int += val
        p_true = r_int / mass
        sigma = math.sqrt(p_true * (1.0 - p_true) / SAMPLES)
        in_block = (xs >= 1.0 - 0.5 ** j) & (xs < 1.0 - 0.5 ** (j + 1))
        for side in (upper, ~upper):
            p_hat = float(np.mean(in_block & side))
            assert abs(p_hat - p_true) <= 4.0 * sigma


def test_sampler_determinism_and_seed_forms(golden_spec):
    a = sample_mu(golden_spec, 5000, seed=7)
    b = sample_mu(golden_spec, 5000, seed=7)
    assert np.array_equal(a.idx, b.idx)
    assert np.array_equal(a.off, b.off)
    assert np.array_equal(a.hei, b.hei)

    c = sample_mu(golden_spec, 5000, seed=(7,))
    assert np.array_equal(a.off, c.off)

    d = sample_mu(golden_spec, 5000, seed=8)
    assert not np.array_equal(a.off, d.off)

    e = sample_mu(golden_spec, 5000, seed=(7, 3))
    assert not np.array_equal(a.off, e.off)


def test_sampler_rejects_bad_count(golden_spec):
    with pytest.raises(ConstraintViolationError):
        sample_mu(golden_spec, 0, seed=1)


@pytest.mark.parametrize("k", [1, 7, lanes.POINT_BLOCK - 1,
                               lanes.POINT_BLOCK + 1, SAMPLE_CHUNK])
def test_round_blocks_draw_the_rows_of_whole_round_draws(k):
    # default_rng's PCG64 spends one 64-bit word per double, so a block
    # reached by jump-ahead draws the columns of the whole round's rows
    whole, blocked = (np.random.default_rng(np.random.SeedSequence((5, k)))
                      for _ in range(2))
    whole.random(3)  # a round that starts inside the stream
    blocked.random(3)
    want = np.stack([whole.random(k) for _ in range(DRAWS_PER_ROUND)])
    got = np.full_like(want, -1.0)
    edges = []
    for lo, hi, rows in measure._round_blocks(blocked, k):
        edges.append((lo, hi))
        got[:, lo:hi] = np.stack(list(rows))
    assert edges == [(lo, min(lo + lanes.POINT_BLOCK, k))
                     for lo in range(0, k, lanes.POINT_BLOCK)]
    assert got.tobytes() == want.tobytes()
    # the generator ends where the whole round's rows leave it
    assert blocked.bit_generator.state == whole.bit_generator.state
    assert blocked.random(5).tobytes() == whole.random(5).tobytes()


@pytest.mark.parametrize("block, count", [
    (1, 150), (7, 2500), (4096, SAMPLE_CHUNK + 300),
    (lanes.POINT_BLOCK, 2 * SAMPLE_CHUNK + 123),
    (SAMPLE_CHUNK + 1, SAMPLE_CHUNK + 300)])
def test_sample_mu_bits_do_not_depend_on_the_block_size(monkeypatch, block,
                                                        count):
    # five intervals: a lower-side step from interval 4 leaves the
    # truncation, and a wider band rejects proposals
    spec = RoofSpec.build(CountableIET.block_rotation(n_trunc=5), band=1e-3)
    *want, counts = sample_mu_whole_rounds(spec, count, (9, 1))
    monkeypatch.setattr(lanes, "POINT_BLOCK", block)
    got = sample_mu(spec, count, (9, 1))
    for a, b in zip((got.idx, got.off, got.hei, got.roof), want):
        assert a.tobytes() == b.tobytes()
    assert (got.proposals, got.accepted, got.band_rejects,
            got.step_discards) == counts
    assert got.proposals > count
    assert got.band_rejects > 0 and got.step_discards > 0


def roof_at(spec, idx, off):
    """The roof at each point, as ``roof_eval_batch`` evaluates it."""
    r = np.empty(idx.shape[0])
    kernels.batch_kernels().roof_eval_batch(spec.pack(), idx, off, r,
                                            np.empty(idx.shape[0]))
    return r


@pytest.mark.parametrize("iet", [
    CountableIET.block_rotation(n_trunc=5), CountableIET.block_swap(n_trunc=9),
    CountableIET.von_neumann_kakutani(n_trunc=9),
    CountableIET.explicit_table(
        [(0.0, 0.3), (0.2, 0.3), (0.5, -0.5), (0.8, 0.0)], n_trunc=16)],
    ids=["rotation", "swap", "odometer", "table"])
def test_sampler_carries_the_roof_of_each_samples_fiber_side(monkeypatch,
                                                             iet):
    # an upper sample carries r at its point; a lower one, r at the
    # proposal x that the sampler stepped to the stored point Tx, which is
    # r(T^-1 Tx) where the backward step gives back the bits of x
    spec = RoofSpec.build(iet)
    backend = kernels.batch_kernels()
    step = backend.base_step_batch
    stepped = []

    def recorded(base, idx, off, status):
        pre = idx.copy(), off.copy()
        bad = step(base, idx, off, status)
        ok = status == kernels.OK
        stepped.append((pre[0][ok], pre[1][ok]))
        return bad

    monkeypatch.setattr(backend, "base_step_batch", recorded)
    batch = sample_mu(spec, 20_000, 4)
    monkeypatch.undo()
    upper = batch.hei >= 0.0
    assert batch.roof[upper].tobytes() == roof_at(
        spec, batch.idx[upper], batch.off[upper]).tobytes()

    # one chunk: its lower samples are the first successful steps, in order
    lower = ~upper
    i, u = batch.idx[lower], batch.off[lower]
    pre_i, pre_u = (np.concatenate(a)[:i.shape[0]] for a in zip(*stepped))
    j, v, st = lanes.iet_step(iet.pack(), pre_i, pre_u)
    assert (st == kernels.OK).all()
    assert j.tobytes() == i.tobytes() and v.tobytes() == u.tobytes()
    assert batch.roof[lower].tobytes() == roof_at(spec, pre_i,
                                                  pre_u).tobytes()
    back_i, back_u, _ = lanes.iet_step_inv(iet.pack(), i, u)
    same = (back_i == pre_i) & (back_u.view(np.int64) == pre_u.view(np.int64))
    assert same.all() if iet.family == kernels.FAM_SWAP else same.any()
    assert batch.roof[lower][same].tobytes() == roof_at(
        spec, back_i[same], back_u[same]).tobytes()


# ---------------------------------------------------------------------------
# invariance under the time-one map
# ---------------------------------------------------------------------------


def test_invariance_under_time_one_map(golden_spec):
    rep = invariance_check(golden_spec, count=100_000, seed=11)
    assert rep.passed
    assert rep.count == 100_000
    assert rep.used + rep.discards == rep.count
    assert rep.discards < 100
    assert rep.threshold == pytest.approx(4.0 / math.sqrt(rep.used))
    assert len(rep.rows) == 8
    d = rep.as_dict()
    assert d["passed"] is True
    assert len(d["rows"]) == 8
    assert all(row["deviation"] <= rep.threshold for row in d["rows"])


def test_invariance_check_evaluates_the_roof_in_the_sampler_only(
        monkeypatch, golden_spec):
    # the time-one step reads the roofs the sampler carried, so the check
    # evaluates the roof once per proposal, as its sample_mu calls do
    count = SAMPLE_CHUNK + 300
    points = [0]
    roof_eval = lanes.roof_eval

    def counted(u, b, l, value=True):
        points[0] += u.shape[0]
        return roof_eval(u, b, l, value)

    monkeypatch.setattr(kernels, "batch_kernels", lambda: lanes)
    monkeypatch.setattr(lanes, "roof_eval", counted)
    invariance_check(golden_spec, count=count, seed=2)
    in_check, points[0] = points[0], 0
    proposals = sum(sample_mu(golden_spec, want, 2, chunk=c).proposals
                    for c, want in enumerate(measure._chunk_sizes(count)))
    assert in_check == points[0] == proposals > count


def test_invariance_identity_map_is_exact(golden_spec):
    def ident(idx, off, hei, r, status):
        status[:] = kernels.OK
        return 0

    rep = invariance_check(golden_spec, count=20_000, seed=3, step_fn=ident)
    assert rep.passed
    assert rep.discards == 0
    for row in rep.rows:
        assert row.freq_pre == row.freq_post
        assert row.deviation == 0.0


def test_invariance_detects_broken_dynamics(golden_spec):
    def shove(idx, off, hei, r, status):
        hei += 5.0
        status[:] = kernels.OK
        return 0

    rep = invariance_check(golden_spec, count=20_000, seed=3, step_fn=shove)
    assert not rep.passed


def test_invariance_all_discarded_raises(golden_spec):
    def kill(idx, off, hei, r, status):
        status[:] = kernels.TRUNCATION
        return 1

    with pytest.raises(ConsistencyError):
        invariance_check(golden_spec, count=1000, seed=3, step_fn=kill)


def test_invariance_check_memory_does_not_grow_with_the_chunk(golden_spec):
    # a chunk's samples with their roofs, its int8 box ids and status, and
    # block-sized temporaries for its sampler rounds and its step: 3.89 MB
    # (4.47 MB with box coordinates in place of ids)
    invariance_check(golden_spec, count=10, seed=1)
    tracemalloc.start()
    try:
        invariance_check(golden_spec, count=2 * SAMPLE_CHUNK + 123, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.4e6


def whole_batch_check(spec, count, seed, step):
    """``invariance_check`` on one ``sample_mu`` batch of all ``count``
    samples, stepped at once: ``(rows, used, discards, threshold)``."""
    batch = sample_mu(spec, count, seed)
    lefts = interval_lefts(spec.iet)
    xs_pre = lefts[batch.idx] + batch.off
    ys_pre = batch.hei.copy()
    status = np.empty(count, dtype=np.int64)
    step(batch.idx, batch.off, batch.hei, batch.roof, status)
    keep = status == kernels.OK
    used = int(np.count_nonzero(keep))
    before = (xs_pre[keep], ys_pre[keep])
    after = (lefts[batch.idx[keep]] + batch.off[keep], batch.hei[keep])
    rows = tuple(InvarianceRow(
        box, float(np.count_nonzero(box.contains(*before))) / used,
        float(np.count_nonzero(box.contains(*after))) / used)
        for box in standard_boxes())
    return rows, used, count - used, 4.0 / math.sqrt(used)


@pytest.mark.parametrize("count", [1, SAMPLE_CHUNK, 2 * SAMPLE_CHUNK + 123])
@pytest.mark.parametrize("injected", [False, True])
def test_invariance_check_streams_the_whole_batch_bits(golden_spec, count,
                                                       injected, caplog):
    def time_one(idx, off, hei, r, status):
        return kernels.batch_kernels().flow_time_one_batch(
            golden_spec.iet.pack(), golden_spec.pack(), idx, off, hei, r,
            status)

    def drop_some(idx, off, hei, r, status):
        # point by point: lifts every point and drops those in interval 2
        hei += 0.5
        status[:] = np.where(idx == 2, kernels.TRUNCATION, kernels.OK)
        return 0

    chunks = []

    def recorded(idx, off, hei, r, status):
        chunks.append((idx.copy(), off.copy(), hei.copy(), r.copy()))
        return drop_some(idx, off, hei, r, status)

    step = drop_some if injected else time_one
    caplog.set_level(logging.DEBUG, logger="ietlab.measure")
    rep = invariance_check(golden_spec, count=count, seed=5,
                           step_fn=recorded if injected else None)
    # the sampler's efficiency is logged once per check
    assert [r.getMessage().startswith("sampler efficiency")
            for r in caplog.records] == [True]
    rows, used, discards, threshold = whole_batch_check(
        golden_spec, count, 5, step)
    assert rep.rows == rows
    assert (rep.count, rep.used, rep.discards, rep.threshold) == (
        count, used, discards, threshold)
    if injected:
        # the step sees each chunk once, in order
        whole = sample_mu(golden_spec, count, 5)
        assert [len(c[0]) for c in chunks] == [
            min(SAMPLE_CHUNK, count - pos)
            for pos in range(0, count, SAMPLE_CHUNK)]
        for got, want in zip(zip(*chunks),
                             (whole.idx, whole.off, whole.hei, whole.roof)):
            assert np.concatenate(got).tobytes() == want.tobytes()


def test_standard_boxes_are_pairwise_disjoint():
    for a, b in itertools.combinations(standard_boxes(), 2):
        assert not (a.x_lo < b.x_hi and b.x_lo < a.x_hi
                    and a.y_lo < b.y_hi and b.y_lo < a.y_hi), (a, b)


def test_box_ids_give_the_boxes_of_region_contains(vnk_iet):
    # the odometer's deepest intervals start where x rounds to 1.0
    iet = vnk_iet
    lefts = interval_lefts(iet)
    last = iet.n_trunc - 1
    xs = [x for j in range(4) for x in (0.25 * j, np.nextafter(0.25 * j, -1.0),
                                        np.nextafter(0.25 * j, 2.0))
          if x >= 0.0]
    xs += np.random.default_rng(4).random(40).tolist()
    points = [iet.locate(float(x)) for x in xs]
    points += [FiberPoint(last, u) for u in (0.0, 0.5 * iet.length(last))]
    heights = [0.0, -0.0, 0.75, -0.75, 0.3, -0.3, 2.0, -2.0]
    heights += [float(np.nextafter(y, t)) for y in (0.0, 0.75, -0.75)
                for t in (-1.0, 1.0)]
    idx = np.repeat([p.index for p in points], len(heights))
    off = np.repeat([p.offset for p in points], len(heights))
    hei = np.tile(heights, len(points))
    xs = lefts[idx] + off
    assert {0.25, 0.5, 0.75, 1.0} <= set(xs.tolist())
    ids = measure._box_ids(lefts, idx, off, hei)
    assert ids.dtype == np.int8
    inside = np.zeros(idx.shape[0], dtype=bool)
    for j, box in enumerate(standard_boxes()):
        hit = box.contains(xs, hei)
        assert np.array_equal(ids == j, hit), box
        assert hit.any()
        inside |= hit
    assert np.array_equal(ids == measure._NO_BOX, ~inside)
    assert not inside.all()


def test_standard_boxes_tile_core_band():
    boxes = standard_boxes()
    assert len(boxes) == 8
    assert len({b.name for b in boxes}) == 8
    area = sum((b.x_hi - b.x_lo) * (b.y_hi - b.y_lo) for b in boxes)
    assert area == pytest.approx(1.5)
    # half-open on both axes
    r = Region("t", 0.0, 0.5, -1.0, 0.0)
    hit = r.contains(np.array([0.0, 0.5, 0.25]), np.array([-1.0, -0.5, 0.0]))
    assert hit.tolist() == [True, False, False]


# ---------------------------------------------------------------------------
# symbol streams
# ---------------------------------------------------------------------------


def test_bernoulli_stream_contract():
    s = bernoulli_stream(0.3, 10_000, seed=1)
    assert s.alphabet_size == 2
    assert len(s) == 10_000
    assert "0.3" in s.provenance
    p_hat = float(np.mean(s.symbols))
    assert abs(p_hat - 0.3) <= 4.0 * math.sqrt(0.3 * 0.7 / 10_000)
    again = bernoulli_stream(0.3, 10_000, seed=1)
    assert np.array_equal(s.symbols, again.symbols)
    for bad in (0.0, 1.0, -0.2):
        with pytest.raises(ConstraintViolationError):
            bernoulli_stream(bad, 10, seed=1)


def test_symbol_stream_validation():
    with pytest.raises(ConstraintViolationError):
        SymbolStream(1, np.zeros(4, dtype=np.int64))
    # checked as given, so that narrowing cannot wrap a bad symbol into range
    for alphabet, bad in ((2, 2), (2, -1), (2, 256), (256, -256), (300, 300),
                          (300, -1), (300, 65536)):
        with pytest.raises(ConstraintViolationError):
            SymbolStream(alphabet, np.array([0, bad]))


@pytest.mark.parametrize("alphabet, dtype", [
    (2, np.uint8), (16, np.uint8), (256, np.uint8), (257, np.uint16),
    (300, np.uint16)])
def test_symbol_stream_keeps_the_narrowest_unsigned_dtype(alphabet, dtype):
    given = np.array([0, alphabet - 1, 1], dtype=np.int64)
    s = SymbolStream(alphabet, given)
    assert s.symbols.dtype == dtype
    assert s.symbols.tolist() == given.tolist()
    assert SymbolStream(alphabet, given.tolist()).symbols.dtype == dtype


def test_coded_orbit_matches_python_steps(golden_iet):
    start = golden_iet.locate(0.3)
    s = coded_orbit_stream(golden_iet, 500, start=start)
    assert s.alphabet_size == 16
    assert len(s) == 500
    assert s.provenance == f"orbit({golden_iet.name})"
    p = start
    expected = []
    for _ in range(500):
        expected.append(min(p.index, 15))
        p = golden_iet.step(p)
    assert s.symbols.tolist() == expected


def test_coded_orbit_clamps_alphabet(vnk_iet):
    start = vnk_iet.locate(0.0)
    s = coded_orbit_stream(vnk_iet, 64, start=start, alphabet_size=2)
    p = start
    expected = []
    for _ in range(64):
        expected.append(min(p.index, 1))
        p = vnk_iet.step(p)
    assert s.symbols.tolist() == expected
    # the orbit of 0 reaches deep intervals, so the clamp really fires
    assert max(p.index for p in [vnk_iet.locate(0.0)]) == 0
    assert set(s.symbols.tolist()) == {0, 1}


def test_coded_orbit_random_start_deterministic(golden_iet):
    a = coded_orbit_stream(golden_iet, 200, seed=5)
    b = coded_orbit_stream(golden_iet, 200, seed=5)
    assert np.array_equal(a.symbols, b.symbols)


def test_coded_orbit_redraws_starts_beyond_the_truncation():
    shallow = CountableIET.von_neumann_kakutani(n_trunc=6)
    # the orbits of seed 6's first four starts leave the truncation within
    # 50 steps, and its fifth draw, 0.98744..., lies in interval 6
    draws = np.random.default_rng(np.random.SeedSequence((6, 0))).random(5)
    with pytest.raises(TruncationExceededError):
        shallow.locate(float(draws[4]))
    for seed in range(40):
        s = coded_orbit_stream(shallow, 50, seed=seed)
        assert len(s) == 50
        assert s.symbols.max() < 6


def test_symbol_file_round_trip(tmp_path):
    s = bernoulli_stream(0.4, 1000, seed=3)
    path = tmp_path / "symbols.txt"
    write_symbols(path, s)
    back = read_symbols(path)
    assert np.array_equal(back.symbols, s.symbols)
    assert back.alphabet_size == 2
    assert back.provenance == f"file:{path}"
    wide = read_symbols(path, alphabet_size=7)
    assert wide.alphabet_size == 7


# ---------------------------------------------------------------------------
# entropy estimators
# ---------------------------------------------------------------------------


def test_block_entropy_exact_periodic():
    s1 = SymbolStream(2, np.arange(1000) % 2)
    assert block_entropy(s1, 1) == math.log(2.0)
    # length 1001 makes both two-blocks appear exactly 500 times
    s2 = SymbolStream(2, np.arange(1001) % 2)
    assert block_entropy(s2, 2) == pytest.approx(math.log(2.0), rel=1e-12)
    assert block_entropy(s1, 0) == 0.0


def test_block_entropy_constant_stream_is_zero():
    s = SymbolStream(2, np.zeros(100, dtype=np.int64))
    assert block_entropy(s, 1) == 0.0
    assert plugin_block_entropy(s, 3) == 0.0


def test_plugin_alternating_conditional_entropy_vanishes():
    s = SymbolStream(2, np.arange(4096) % 2)
    assert plugin_block_entropy(s, 2) == pytest.approx(0.0, abs=1e-4)


def test_plugin_matches_bernoulli_entropy():
    for p in (0.1, 0.3, 0.5):
        truth = shannon(p)
        s = bernoulli_stream(p, SAMPLES, seed=17)
        est = plugin_block_entropy(s, block_len=10)
        assert abs(est - truth) <= 0.05 * truth


def test_lz78_rate_brackets_iid_and_periodic():
    s = bernoulli_stream(0.5, 100_000, seed=9)
    rate = lz78_rate(s)
    assert 0.5 * math.log(2.0) < rate < 1.5 * math.log(2.0)
    periodic = SymbolStream(2, np.arange(100_000) % 2)
    assert lz78_rate(periodic) < 0.1


def tuple_key_lz78(symbols, alphabet_size):
    """LZ78 with its trie keyed by (node, symbol): the rate, and whether
    the stream ends inside a phrase."""
    table = {}
    node = 0
    phrases = 0
    for s in symbols.tolist():
        nxt = table.get((node, s))
        if nxt is None:
            table[node, s] = len(table) + 1
            phrases += 1
            node = 0
        else:
            node = nxt
    mid_phrase = node != 0
    phrases += mid_phrase
    return phrases * math.log(phrases) / symbols.size, mid_phrase


@pytest.mark.parametrize("alphabet", [2, 3, 16, 64, 300])
def test_lz78_rate_matches_tuple_keyed_trie(alphabet):
    rng = np.random.default_rng(alphabet)
    ends = []
    for length in range(2000, 2016):
        sym = rng.integers(0, alphabet, length)
        want, mid_phrase = tuple_key_lz78(sym, alphabet)
        assert lz78_rate(SymbolStream(alphabet, sym)) == want
        ends.append(mid_phrase)
    assert any(ends) and not all(ends)


#: The diagnostics workload's entropy seed at workload seed 0.
DIAGNOSTICS_SEED = 1854105804

#: stream -> plug-in estimate at block length 12, as ``float.hex``: the
#: four streams of the diagnostics workload's `lab entropy`.
PLUGIN_PINS = {
    "bernoulli(p=0.1)": "0x1.4b132f959a860p-2",
    "bernoulli(p=0.3)": "0x1.37370d06d37e8p-1",
    "bernoulli(p=0.5)": "0x1.618ebb53e8908p-1",
    "orbit(VonNeumannKakutani)": "0x1.62bbb93816da0p-4",
}

#: (alphabet, block length, stream length, lone symbol) -> plug-in estimate
#: on uniform symbols seeded by the stream length.  The lengths put the
#: number of blocks on either side of a quarter of the number of possible
#: keys: for the 7-blocks over 3 symbols (546 and 547 of 2187), for the
#: 6-blocks over 4 symbols (1023 and 1024 of 4096), and for the 2-blocks
#: over 16 symbols (63 and 64 of 256).  Where the lone symbol is not None,
#: the stream ends with it and draws every other symbol from the rest of
#: the alphabet, so that its last (L - 1)-block occurs nowhere else.
PLUGIN_EDGE_PINS = {
    (3, 7, 552, None): "0x1.4665b85e8b4e0p-2",
    (3, 7, 553, None): "0x1.25993dc2bead0p-2",
    (4, 7, 1028, None): "0x1.eb4daef7c8600p-4",
    (4, 7, 1029, None): "0x1.ee496ef6d5a80p-4",
    (16, 2, 64, None): "0x1.6076214aed4a6p+0",
    (16, 2, 65, None): "0x1.5b850d8706718p+0",
    (3, 1, 100, 0): "0x1.762cb12d4b546p-1",
    (16, 1, 64, 15): "0x1.500188dca733bp+1",
    (3, 2, 100, 1): "0x1.593ab95ac435ap-1",
    (3, 2, 100, 2): "0x1.593ab95ac4359p-1",
    (16, 2, 64, 0): "0x1.6876eac9e89aep+0",
    (16, 2, 64, 15): "0x1.6876eac9e89aep+0",
    (16, 2, 65, 7): "0x1.612e84b3a14aap+0",
    (3, 7, 552, 0): "0x1.3fcd4a36d9f58p-1",
    (3, 7, 553, 2): "0x1.34e44f06766a0p-1",
    (4, 7, 1028, 3): "0x1.db58ff07d5640p-2",
}


def edge_stream(alphabet, n, lone):
    """The stream of a ``PLUGIN_EDGE_PINS`` key."""
    rng = np.random.default_rng(n)
    if lone is None:
        return SymbolStream(alphabet, rng.integers(0, alphabet, n))
    rest = np.delete(np.arange(alphabet), lone)
    sym = rest[rng.integers(0, alphabet - 1, n)]
    sym[-1] = lone
    return SymbolStream(alphabet, sym)


def test_plugin_block_entropy_bits_on_the_diagnostics_streams():
    streams = [bernoulli_stream(p, 400_000, DIAGNOSTICS_SEED)
               for p in (0.1, 0.3, 0.5)]
    streams.append(coded_orbit_stream(
        CountableIET.von_neumann_kakutani(n_trunc=64), 400_000,
        seed=DIAGNOSTICS_SEED))
    got = {s.provenance: plugin_block_entropy(s, 12).hex() for s in streams}
    assert got == PLUGIN_PINS


def test_plugin_block_entropy_bits_around_the_counting_switch():
    got = {}
    for alphabet, block_len, n, lone in PLUGIN_EDGE_PINS:
        got[alphabet, block_len, n, lone] = plugin_block_entropy(
            edge_stream(alphabet, n, lone), block_len).hex()
    assert got == PLUGIN_EDGE_PINS


def traced(fn):
    """``(fn(), bytes kept, peak bytes)`` under tracemalloc."""
    tracemalloc.start()
    try:
        out = fn()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, kept, peak


def test_entropy_memory_on_the_diagnostics_streams():
    # at 4e5 symbols a stream keeps one byte per symbol (0.4 MB, 3.2 MB as
    # int64); the plug-in estimator one int64 key array and sort or count
    # temporaries (3.4-3.6 MB, 6.6-6.8 MB with a second key array); LZ78
    # its trie and no symbol list (1.3-1.8 MB, 4.1-4.6 MB with one)
    vnk = CountableIET.von_neumann_kakutani(n_trunc=64)
    for make in (lambda n: bernoulli_stream(0.5, n, DIAGNOSTICS_SEED),
                 lambda n: coded_orbit_stream(vnk, n, seed=DIAGNOSTICS_SEED)):
        small = make(4096)
        plugin_block_entropy(small, 8)
        lz78_rate(small)
        stream, kept, _ = traced(lambda: make(400_000))
        assert kept <= 0.5e6
        assert traced(lambda: plugin_block_entropy(stream, 12))[2] < 4e6
        assert traced(lambda: lz78_rate(stream))[2] < 2e6


def test_entropy_estimate_wrapper():
    s = bernoulli_stream(0.5, 5000, seed=2)
    est = entropy_estimate(s, "plugin", block_len=8)
    assert est.method == "plugin"
    assert est.detail == {"block_len": 8, "length": 5000}
    assert est.as_dict()["length"] == 5000
    est2 = entropy_estimate(s, "lz78")
    assert est2.method == "lz78"
    assert est2.value == lz78_rate(s)
    with pytest.raises(ConstraintViolationError):
        entropy_estimate(s, "bogus")


def test_entropy_error_paths():
    short = SymbolStream(2, np.zeros(100, dtype=np.int64))
    with pytest.raises(InsufficientDataError):
        plugin_block_entropy(short, 12)
    with pytest.raises(InsufficientDataError):
        block_entropy(SymbolStream(2, np.zeros(3, dtype=np.int64)), 5)
    with pytest.raises(ConstraintViolationError):
        plugin_block_entropy(short, 0)
    wide = SymbolStream(16, np.zeros(100_000, dtype=np.int64))
    with pytest.raises(ConstraintViolationError):
        block_entropy(wide, 16)  # 16 * log2(16) = 64 bits will not fit a key
    with pytest.raises(InsufficientDataError):
        lz78_rate(SymbolStream(2, np.array([1])))


# ---------------------------------------------------------------------------
# time change
# ---------------------------------------------------------------------------


def test_abramov_oracle_value():
    res = abramov(math.log(2.0), 1.25)
    assert res.scale == 2.5
    assert res.h_flow == pytest.approx(math.log(2.0) / 2.5, rel=1e-15)
    assert round(res.h_flow, 5) == 0.27726


def test_abramov_exact_homogeneity():
    rng = np.random.default_rng(123)
    for _ in range(50):
        h = float(rng.uniform(0.0, 5.0))
        r = float(rng.uniform(0.5, 4.0))
        assert abramov(2.0 * h, r).h_flow == 2.0 * abramov(h, r).h_flow


def test_abramov_infinity_and_serialization():
    res = abramov(math.inf, 1.3)
    assert math.isinf(res.h_flow)
    d = res.as_dict()
    assert d["h_base"] == "inf"
    assert d["h_flow"] == "inf"
    assert d["scale"] == 2.6
    fin = abramov(0.0, 1.3)
    assert fin.h_flow == 0.0
    assert fin.as_dict()["h_base"] == 0.0


def test_abramov_validation():
    for bad in (0.0, -1.0, math.inf):
        with pytest.raises(ConstraintViolationError):
            abramov(1.0, bad)
    with pytest.raises(ConstraintViolationError):
        abramov(-0.5, 1.0)
    with pytest.raises(ConstraintViolationError):
        abramov(math.nan, 1.0)


def test_abramov_scale_matches_suspension_mass(golden_spec):
    mass = total_mass(golden_spec)
    res = abramov(1.0, mass.integral_r)
    assert res.scale == pytest.approx(mass.total_mass, rel=1e-8)
