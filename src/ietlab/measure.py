"""Sampling from the suspension measure, invariance checks, entropy estimators.

The suspension carries the product of Lebesgue measure on the base with
Lebesgue measure in the fiber; its total mass is twice the roof integral.
``sample_mu`` draws exact (not approximate) samples by envelope rejection:
the envelope is flat over the middle of each interval and matches the
logarithmic spike profile near the ends, so one proposal is accepted with
probability r/env <= 1.  ``sample_starts`` gives the orbit experiments one
sample per seed, as ``sample_mu(spec, 1, seed)`` would, for all seeds in
one batch.

Entropy estimators operate on integer symbol streams and know nothing about
where the stream came from; ``abramov`` converts a base-map entropy rate to
the flow entropy rate via the time change.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from . import kernels
from .errors import (
    ConsistencyError,
    ConstraintViolationError,
    InsufficientDataError,
    TruncationExceededError,
    raise_for_status,
)
from .geometry import SuspensionPoint
from .iet import CountableIET, FiberPoint
from .libm import elementwise
from .roof import RoofSpec, roof_integral

log = logging.getLogger(__name__)

#: Samples per chunk of ``sample_mu``; each chunk has its own seed, so this
#: fixes the sampler's seed layout.
SAMPLE_CHUNK = 65536
SAMPLE_MAX_ROUNDS = 512
#: Uniforms per proposal in a round of the sampler.
DRAWS_PER_ROUND = 8
CODED_ORBIT_ATTEMPTS = 100
MIN_EFFICIENCY = 0.25
#: Widest alphabet whose LZ78 trie is a flat list with a slot per symbol
#: for every node; wider alphabets key a dict by edge instead.
LZ78_LIST_ALPHABET = 16
#: ``_block_counts`` counts blocks with ``np.bincount`` while there are at
#: most this many possible keys per block, and sorts them otherwise.
BINCOUNT_KEYS_PER_BLOCK = 4


# ---------------------------------------------------------------------------
# total mass
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MeasureReport:
    """Mass of the suspension region, computed twice.

    ``integral_r`` and ``integral_r_alt`` are the roof integral under the
    two quadrature schemes; the fiber above x has length r(x) + r(T^-1 x),
    and base-map invariance of Lebesgue measure makes each of the two
    contributions equal to the roof integral.  ``total_mass`` sums one copy
    of each scheme, so the identity total = 2 * integral_r doubles as a
    scheme-agreement check.
    """

    integral_r: float
    integral_r_alt: float
    total_mass: float
    tail_bound: float

    @property
    def normalization(self) -> float:
        return 1.0 / self.total_mass

    @property
    def identity_gap(self) -> float:
        """|total_mass - 2 * integral_r|, relative."""
        return abs(self.total_mass - 2.0 * self.integral_r) / self.total_mass

    def as_dict(self) -> dict:
        return {
            "integral_r": self.integral_r,
            "integral_r_alt": self.integral_r_alt,
            "total_mass": self.total_mass,
            "normalization": self.normalization,
            "tail_bound": self.tail_bound,
            "identity_gap": self.identity_gap,
        }


def total_mass(spec: RoofSpec) -> MeasureReport:
    """Mass of the suspension region: one roof integral per fiber side."""
    top = roof_integral(spec, scheme="simpson")
    bottom = roof_integral(spec, scheme="gauss")
    return MeasureReport(
        integral_r=top.value,
        integral_r_alt=bottom.value,
        total_mass=top.value + bottom.value,
        tail_bound=top.error_bound + bottom.error_bound,
    )


# ---------------------------------------------------------------------------
# exact sampling by envelope rejection
# ---------------------------------------------------------------------------


@dataclass
class PointBatch:
    """Samples from the normalized suspension measure, stored as arrays.

    ``roof`` is the roof the sampler evaluated at each accepted proposal,
    which bounds the sample's fiber side: r(x) if y >= 0, else r(T^-1 x).
    """

    idx: np.ndarray
    off: np.ndarray
    hei: np.ndarray
    roof: np.ndarray
    proposals: int = 0
    accepted: int = 0
    band_rejects: int = 0
    step_discards: int = 0

    def __len__(self) -> int:
        return int(self.idx.shape[0])

    @property
    def efficiency(self) -> float:
        if self.proposals == 0:
            return 1.0
        return self.accepted / self.proposals

    def point(self, k: int) -> SuspensionPoint:
        return SuspensionPoint(
            FiberPoint(int(self.idx[k]), float(self.off[k])), float(self.hei[k]))


def interval_lefts(iet: CountableIET) -> np.ndarray:
    """Left endpoints of every representable interval, indexed by interval."""
    return np.asarray([iet.left(i) for i in range(iet.n_trunc)], dtype=np.float64)


def _spike_fraction(u1: np.ndarray, u2: np.ndarray,
                    coin: np.ndarray) -> np.ndarray:
    """V on (0, 1] with density (1 - log v) / 2, from three uniforms.

    Mixture: with probability 1/2 take U, otherwise U1 * U2 (whose density
    is -log v).  Zero draws are nudged away from the singular endpoint.
    """
    v = np.where(coin < 0.5, u1, u1 * u2)
    return np.maximum(v, 1e-300)


def _envelope_error(ratio: float) -> ConsistencyError:
    return ConsistencyError(f"envelope violated: acceptance ratio {ratio} > 1")


def _stall_error() -> ConsistencyError:
    return ConsistencyError("rejection sampler stalled; check roof")


def _envelope_table(spec: RoofSpec) -> tuple:
    """What every round of the sampler reads: the roof's and the base's
    packs, and the envelope's cumulative mass by interval."""
    roof = spec.pack()
    lengths, bs, _ = roof
    cum = np.cumsum(lengths + 2.0 * bs)
    return roof, spec.iet.pack(), cum


def _sampler_round(table: tuple, backend, draws: Iterator[np.ndarray],
                   k: int, stats: PointBatch):
    """One round of envelope rejection on ``k`` independent proposals.

    ``table`` is ``_envelope_table(spec)``.  ``draws`` yields the round's
    uniforms as ``k``-arrays, one row at a time, in the order sel, q, u1,
    u2, coin, accept, upper, frac.  Every operation is elementwise, so
    proposal j depends on column j alone.  Returns ``(ratio, over, kept,
    idx, off, hei, r)``: the acceptance ratios, the proposals whose ratio
    exceeds 1 (never accepted), the mask of the accepted proposals whose
    lower-side step succeeded, and those samples and roofs in proposal order.
    ``stats`` counts proposals, band rejects and step discards.
    """
    from . import lanes
    roof, base, cum = table
    lengths, bs, band = roof
    stats.proposals += k
    sel = np.searchsorted(cum, next(draws) * float(cum[-1]), side="right")
    sel = np.minimum(sel, lengths.shape[0] - 1).astype(np.int64)
    l = lengths[sel]
    b = bs[sel]
    q = next(draws) * (l + 2.0 * b)
    v = _spike_fraction(next(draws), next(draws), next(draws))
    left_spike = q < 2.0 * b
    right_spike = (~left_spike) & (q < 4.0 * b)
    u = np.where(left_spike, b * v,
                 np.where(right_spike, l - b * v, b + (q - 4.0 * b)))
    # evaluate the envelope at the stored offset with the same expressions
    # the roof kernel uses, so rounding of u cannot push the acceptance
    # ratio past 1
    t_eff = np.where(left_spike, u / b,
                     np.where(right_spike, (l - u) / b, 1.0))
    env = 1.0 - elementwise(math.log, np.maximum(t_eff, 5e-324))
    ok = ~lanes._in_band(u, l, band)
    stats.band_rejects += int(k - np.count_nonzero(ok))

    r = np.empty(k)
    dr = np.empty(k)
    backend.roof_eval_batch(roof, sel, u, r, dr)
    ratio = np.where(ok, r / env, 0.0)
    over = ratio > 1.0 + 1e-12
    kept = (next(draws) < ratio) & ~over

    # fiber side: upper keeps the base point, lower pushes it forward
    upper = next(draws) < 0.5
    frac = next(draws)
    y = np.where(upper, frac * r, -(1.0 - frac) * r)

    idx_a = sel[kept]
    off_a = u[kept]
    lower = ~upper[kept]
    li, lo = idx_a[lower], off_a[lower]
    st = np.empty(li.shape[0], dtype=np.int64)
    stats.step_discards += backend.base_step_batch(base, li, lo, st)
    idx_a[lower] = li
    off_a[lower] = lo
    good = np.ones(idx_a.shape[0], dtype=bool)
    good[lower] = st == kernels.OK
    kept[kept] = good
    return ratio, over, kept, idx_a[good], off_a[good], y[kept], r[kept]


def _log_efficiency(efficiency: float) -> None:
    if efficiency < MIN_EFFICIENCY:
        log.warning("sampler efficiency %.3f below %.2f",
                    efficiency, MIN_EFFICIENCY)
    else:
        log.debug("sampler efficiency %.3f", efficiency)


def _chunk_rng(seed: int | tuple, chunk: int) -> np.random.Generator:
    """The generator of one chunk of ``sample_mu``: the seed's words, then
    the chunk number."""
    if isinstance(seed, (tuple, list)):
        seed_words = tuple(int(s) for s in seed)
    else:
        seed_words = (int(seed),)
    return np.random.default_rng(np.random.SeedSequence(seed_words + (chunk,)))


def _chunk_sizes(count: int) -> list[int]:
    """The sizes of the chunks of ``count`` samples: ``SAMPLE_CHUNK`` each
    but the last."""
    if count <= 0:
        raise ConstraintViolationError("sample count must be positive")
    return [min(SAMPLE_CHUNK, count - pos)
            for pos in range(0, count, SAMPLE_CHUNK)]


def _round_blocks(rng: np.random.Generator, k: int):
    """A sampler round's uniforms, in blocks of ``lanes.POINT_BLOCK`` of its
    ``k`` columns.

    Yields ``(lo, hi, rows)`` for the columns [lo, hi) of each block, in
    order; ``rows`` yields that block's columns of the round's
    ``DRAWS_PER_ROUND`` rows, as ``_sampler_round`` reads them, and must be
    used up before the next block is taken.  Row j's columns are the
    words j * k + lo onward of the generator's stream from the round's
    start, which the block reaches by jump-ahead (``advance``): one word
    per double, so the doubles of ``rng.random(k)`` drawn once per row.
    The last block's last row ends where the round's whole rows end, and
    leaves the generator there.
    """
    from . import lanes
    bitgen = rng.bit_generator
    start = bitgen.state

    def rows(lo, hi):
        bitgen.state = start
        bitgen.advance(lo)
        for row in range(DRAWS_PER_ROUND):
            if row:
                bitgen.advance(k - (hi - lo))
            yield rng.random(hi - lo)

    for lo in range(0, k, lanes.POINT_BLOCK):
        hi = min(lo + lanes.POINT_BLOCK, k)
        yield lo, hi, rows(lo, hi)


def sample_mu(spec: RoofSpec, count: int, seed: int | tuple, *,
              chunk: int = 0) -> PointBatch:
    """Draw ``count`` exact samples from the normalized suspension measure.

    Deterministic given ``seed`` (an integer or a tuple of integers): chunk
    c extends the seed words with c and uses a fixed draw layout, so results
    do not depend on thread scheduling.  The samples start at chunk
    ``chunk``: ``sample_mu(spec, want, seed, chunk=c)``, with ``want`` the
    size of chunk c of ``count`` samples, draws the samples that
    ``sample_mu(spec, count, seed)`` puts at positions c * SAMPLE_CHUNK
    onward.  Mass beyond the index truncation is not representable and is
    skipped; its relative weight is below the truncation tail bound.  The
    batch counts its proposals; its callers log the sampler's efficiency.

    A round of k proposals runs in blocks of ``lanes.POINT_BLOCK`` of its
    columns (``_round_blocks``), each block's uniforms reached by
    jump-ahead in the chunk's generator, and its accepted samples are
    written in proposal order.  ``default_rng``'s PCG64 spends one 64-bit
    word per double, so the blocks draw the bits of the round's whole
    rows, and the samples and counts are those of one round on all k
    columns
    (``tests/test_measure.py::test_round_blocks_draw_the_rows_of_whole_round_draws``
    pins the draws).  So the sampler's temporaries are of block size,
    whatever the chunk size.  An envelope violation raises after its
    round, with the round's largest ratio.
    """
    backend = kernels.batch_kernels()
    table = _envelope_table(spec)
    sizes = _chunk_sizes(count)
    out_idx = np.empty(count, dtype=np.int64)
    out_off = np.empty(count, dtype=np.float64)
    out_hei = np.empty(count, dtype=np.float64)
    out_roof = np.empty(count, dtype=np.float64)
    stats = PointBatch(out_idx, out_off, out_hei, out_roof)

    pos = 0
    for ci, want in enumerate(sizes, start=chunk):
        rng = _chunk_rng(seed, ci)
        end = pos + want
        rounds = 0
        while pos < end:
            rounds += 1
            if rounds > SAMPLE_MAX_ROUNDS:
                raise _stall_error()
            peaks = []
            violated = False
            for lo, hi, rows in _round_blocks(rng, end - pos):
                ratio, over, _, idx_a, off_a, y_a, r_a = _sampler_round(
                    table, backend, rows, hi - lo, stats)
                peaks.append(np.max(ratio))
                violated |= bool(np.any(over))
                # accepted samples in proposal order, up to the chunk's end
                take = min(idx_a.shape[0], end - pos)
                out_idx[pos:pos + take] = idx_a[:take]
                out_off[pos:pos + take] = off_a[:take]
                out_hei[pos:pos + take] = y_a[:take]
                out_roof[pos:pos + take] = r_a[:take]
                pos += take
                stats.accepted += take
            if violated:
                raise _envelope_error(float(np.max(peaks)))
    return stats


def sample_starts(spec: RoofSpec, seeds: Sequence[tuple]) -> list:
    """``sample_mu(spec, 1, seed).point(0)`` for every seed, in one batch.

    Entry j is that point, or the ``LabError`` that call raises.  Sample j
    draws from seed j's generator, eight doubles a round, as ``sample_mu``
    does; ``rng.random(8)`` gives the same doubles as eight ``random(1)``
    calls, so each round fills one row per draw for all samples still
    without a point and runs them as one set of numpy calls.  A rejected
    sample, or one whose lower-side step fails, draws again from its own
    generator.  The sampler's efficiency is logged once per batch.
    """
    backend = kernels.batch_kernels()
    table = _envelope_table(spec)
    rngs = [_chunk_rng(seed, 0) for seed in seeds]
    out: list = [None] * len(rngs)
    live = np.arange(len(rngs))
    stats = PointBatch(*(np.empty(0) for _ in range(4)))
    for _ in range(SAMPLE_MAX_ROUNDS):
        if not live.size:
            break
        draws = np.array([rngs[j].random(DRAWS_PER_ROUND)
                          for j in live.tolist()]).T
        ratio, over, kept, idx, off, hei, _ = _sampler_round(
            table, backend, iter(draws), live.shape[0], stats)
        for j, w in zip(live[over].tolist(), ratio[over].tolist()):
            out[j] = _envelope_error(w)
        for j, i, u, y in zip(live[kept].tolist(), idx.tolist(), off.tolist(),
                              hei.tolist()):
            out[j] = SuspensionPoint(FiberPoint(i, u), y)
        stats.accepted += idx.shape[0]
        live = live[~(kept | over)]
    for j in live.tolist():
        out[j] = _stall_error()
    _log_efficiency(stats.efficiency)
    return out


# ---------------------------------------------------------------------------
# invariance of the flow
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Region:
    """Axis-aligned box in (absolute base coordinate, fiber height)."""

    name: str
    x_lo: float
    x_hi: float
    y_lo: float
    y_hi: float

    def contains(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        return ((xs >= self.x_lo) & (xs < self.x_hi)
                & (ys >= self.y_lo) & (ys < self.y_hi))

    def as_dict(self) -> dict:
        return {"name": self.name, "x_lo": self.x_lo, "x_hi": self.x_hi,
                "y_lo": self.y_lo, "y_hi": self.y_hi}


_NO_BOX = 8  # the box id of a point in no standard box


def standard_boxes() -> tuple[Region, ...]:
    """Eight disjoint boxes inside the suspension region for every roof
    (r >= 1)."""
    out = []
    for j in range(4):
        x_lo, x_hi = 0.25 * j, 0.25 * (j + 1)
        out.append(Region(f"x{j}y-", x_lo, x_hi, -0.75, 0.0))
        out.append(Region(f"x{j}y+", x_lo, x_hi, 0.0, 0.75))
    return tuple(out)


def _box_ids(lefts: np.ndarray, idx: np.ndarray, off: np.ndarray,
            hei: np.ndarray) -> np.ndarray:
    """Each point's index in ``standard_boxes()``, or ``_NO_BOX``, as int8.
    4x is exact, so floor(4x) tests the columns as ``Region.contains`` does."""
    x = lefts[idx]
    x += off
    x *= 4.0
    inside = (x >= 0.0) & (x < 4.0) & (hei >= -0.75) & (hei < 0.75)
    np.floor(x, out=x)
    x *= 2.0
    x += hei >= 0.0
    x[~inside] = _NO_BOX
    return x.astype(np.int8)


@dataclass(frozen=True)
class InvarianceRow:
    region: Region
    freq_pre: float
    freq_post: float

    @property
    def deviation(self) -> float:
        return abs(self.freq_post - self.freq_pre)

    def as_dict(self) -> dict:
        return {**self.region.as_dict(), "freq_pre": self.freq_pre,
                "freq_post": self.freq_post, "deviation": self.deviation}


@dataclass(frozen=True)
class InvarianceReport:
    count: int
    used: int
    discards: int
    threshold: float
    rows: tuple[InvarianceRow, ...]

    @property
    def passed(self) -> bool:
        return all(row.deviation <= self.threshold for row in self.rows)

    def as_dict(self) -> dict:
        return {"count": self.count, "used": self.used,
                "discards": self.discards, "threshold": self.threshold,
                "passed": self.passed,
                "rows": [row.as_dict() for row in self.rows]}


StepFn = Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray,
                   np.ndarray], int]


def invariance_check(spec: RoofSpec, count: int = 100000, seed: int = 0,
                     step_fn: StepFn | None = None) -> InvarianceReport:
    """Compare the frequencies of the ``standard_boxes`` before and after
    one unit of flow time.

    The ``count`` samples of ``sample_mu(spec, count, seed)`` are drawn and
    stepped one chunk at a time, so no array holds all of them: each chunk
    comes from its own ``sample_mu`` call, takes its box ids, is stepped in
    place once with the sampler's roofs, and takes its ids again.  Every
    kernel works point by point, so the counts are those of the whole
    sample stepped at once.  Pairs whose forward step fails (exclusion
    band, truncation) are dropped from both sides.  ``step_fn`` replaces
    ``flow_time_one_batch`` after its packs, for fault injection in tests;
    it is called once per chunk, in order, must mutate the arrays in place
    and fill status.  The sampler's efficiency is logged once per check.
    """
    boxes = standard_boxes()
    lefts = interval_lefts(spec.iet)
    if step_fn is None:
        step_fn = functools.partial(
            kernels.batch_kernels().flow_time_one_batch,
            spec.iet.pack(), spec.pack())
    pre = [0] * len(boxes)
    post = [0] * len(boxes)
    used = 0
    proposals = 0
    for c, want in enumerate(_chunk_sizes(count)):
        batch = sample_mu(spec, want, seed, chunk=c)
        proposals += batch.proposals
        before = _box_ids(lefts, batch.idx, batch.off, batch.hei)
        status = np.empty(want, dtype=np.int64)
        step_fn(batch.idx, batch.off, batch.hei, batch.roof, status)
        after = _box_ids(lefts, batch.idx, batch.off, batch.hei)
        lost = status != kernels.OK
        used += want - int(np.count_nonzero(lost))
        before[lost] = _NO_BOX
        after[lost] = _NO_BOX
        for j in range(len(boxes)):
            pre[j] += int(np.count_nonzero(before == j))
            post[j] += int(np.count_nonzero(after == j))
        # free the chunk before the next one is drawn
        del batch, before, after, status, lost
    _log_efficiency(count / proposals)
    if used == 0:
        raise ConsistencyError("no surviving samples in invariance check")

    rows = tuple(InvarianceRow(box, float(p) / used, float(q) / used)
                 for box, p, q in zip(boxes, pre, post))
    return InvarianceReport(
        count=count, used=used, discards=count - used,
        threshold=4.0 / math.sqrt(used), rows=rows)


# ---------------------------------------------------------------------------
# symbol streams
# ---------------------------------------------------------------------------


def _symbol_dtype(alphabet_size: int) -> np.dtype:
    """The narrowest unsigned dtype that holds symbols below
    ``alphabet_size``: uint8 for every alphabet up to 256."""
    return np.min_scalar_type(alphabet_size - 1)


@dataclass(frozen=True)
class SymbolStream:
    """Integer symbols in [0, alphabet_size) with a provenance note.

    The symbols are checked as given, then kept in the narrowest unsigned
    dtype that holds the alphabet: uint8 up to 256 symbols.
    """

    alphabet_size: int
    symbols: np.ndarray
    provenance: str = ""

    def __post_init__(self):
        sym = np.asarray(self.symbols)
        if not np.issubdtype(sym.dtype, np.integer):
            sym = sym.astype(np.int64)
        if self.alphabet_size < 2:
            raise ConstraintViolationError("alphabet needs at least 2 symbols")
        if sym.size and (sym.min() < 0 or sym.max() >= self.alphabet_size):
            raise ConstraintViolationError("symbol out of alphabet range")
        object.__setattr__(self, "symbols", sym.astype(
            _symbol_dtype(self.alphabet_size), copy=False))

    def __len__(self) -> int:
        return int(self.symbols.size)


def bernoulli_stream(p: float, length: int, seed: int) -> SymbolStream:
    """Independent 0/1 symbols with P(1) = p."""
    if not 0.0 < p < 1.0:
        raise ConstraintViolationError("bernoulli parameter must be in (0, 1)")
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0)))
    sym = (rng.random(length) < p).view(np.uint8)
    return SymbolStream(2, sym, provenance=f"bernoulli(p={p})")


def _code_odometer(base, i, u, alphabet, out):
    """``kernels.code_orbit`` on the odometer as a counter, or None.

    While the start's offset is a multiple of 2^-53 (as every draw of
    ``rng.random()`` is, and ``locate`` keeps it), every float operation of
    the odometer's step is exact and the step is the adding machine: with R
    the 53 bits of x 2^53 in reversed order, one step is R -> R + 1 and the
    interval index is the number of trailing one bits of R, which is the
    number of trailing zero bits of R + 1.  So symbol k is the number of
    levels j = 1 .. alphabet - 1 whose 2^j divides R0 + k + 1: one strided
    add per level.  The kernel stops with TRUNCATION after the step into
    the first state with at least ``ntr`` trailing ones, and the same
    prefix is written here.  Returns the kernel's status, or None (and
    writes nothing) for another family, an index past 52, an offset off the
    grid or outside its interval, an alphabet below 1, or an orbit that
    would reach R = 2^53 - 2, next to the state 1 - 2^-53 whose step leaves
    the grid.
    """
    if (base[0] != kernels.FAM_ODOMETER or alphabet < 1
            or not 0 <= i < 53 or not 0.0 <= u < math.ldexp(1.0, -i - 1)):
        return None
    scaled = math.ldexp(u, 53)
    if scaled != math.floor(scaled):
        return None
    n = out.shape[0]
    x = (1 << 53) - (1 << (53 - i)) + int(scaled)
    r = int(format(x, "053b")[::-1], 2)
    if r + n + 1 >= (1 << 53) - 1:
        return None
    ntr = base[-1]
    # the first state past r with ntr trailing ones is r + stop
    stop = ((((r + 1) >> ntr) + 1) << ntr) - 1 - r
    m = min(n, stop)
    sym = out[:m]
    sym[:] = 0
    for j in range(1, alphabet):
        first = -(r + 1) % (1 << j)
        if first >= m:
            break
        sym[first::1 << j] += 1
    return kernels.TRUNCATION if stop <= n else kernels.OK


def coded_orbit_stream(iet: CountableIET, length: int, seed: int = 0,
                       start: FiberPoint | None = None,
                       alphabet_size: int = 16) -> SymbolStream:
    """Symbolic coding of a base orbit: symbol = min(interval index, A - 1).

    A random start is redrawn if it lies beyond the truncation or its orbit
    leaves the representable index range before ``length`` steps.  On the
    odometer, ``_code_odometer`` writes the symbols of a start on the 2^-53
    grid (every random start) as a counter's trailing zero counts, with the
    bits of ``kernels.code_orbit``; other families, starts off the grid and
    orbits that would come near 1 - 2^-53 take the kernel's step loop.
    """
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0)))
    out = np.empty(length, dtype=_symbol_dtype(alphabet_size))
    base = iet.pack()
    for _ in range(CODED_ORBIT_ATTEMPTS):
        if start is not None:
            p = start
        else:
            try:
                p = iet.locate(rng.random())
            except TruncationExceededError:
                continue  # mass beyond the truncation, skipped as in sample_mu
        status = _code_odometer(base, p.index, p.offset, alphabet_size, out)
        if status is None:
            status = kernels.code_orbit(base, p.index, p.offset,
                                        alphabet_size, out)
        if status == kernels.OK:
            return SymbolStream(alphabet_size, out,
                                provenance=f"orbit({iet.name})")
        if start is not None:
            raise_for_status(int(status), "coded orbit from fixed start")
    raise ConsistencyError("could not find a full-length orbit to code")


def write_symbols(path, stream: SymbolStream) -> None:
    """One decimal symbol per line."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(map(str, stream.symbols.tolist())))
        fh.write("\n")


def read_symbols(path, alphabet_size: int | None = None) -> SymbolStream:
    with open(path, "r", encoding="ascii") as fh:
        text = fh.read().split()
    sym = np.asarray([int(tok) for tok in text], dtype=np.int64)
    if alphabet_size is None:
        alphabet_size = int(sym.max()) + 1 if sym.size else 2
        alphabet_size = max(alphabet_size, 2)
    return SymbolStream(alphabet_size, sym, provenance=f"file:{path}")


# ---------------------------------------------------------------------------
# entropy estimators
# ---------------------------------------------------------------------------


def _block_keys(sym: np.ndarray, a: int, block_len: int, m: int) -> np.ndarray:
    """Base-``a`` keys of the first ``m`` blocks of length ``block_len >= 1``,
    in a new int64 array."""
    keys = sym[:m].astype(np.int64)
    for j in range(1, block_len):
        keys *= a
        keys += sym[j:j + m]
    return keys


def _count_entropy(counts: np.ndarray, total: int) -> float:
    """Entropy (nats) of the nonzero ``counts`` out of ``total``."""
    p = counts / total
    return float(-np.sum(p * elementwise(math.log, p)))


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """Where each run of equal keys of a sorted array starts."""
    new = np.empty(keys.size, dtype=bool)
    new[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    return np.flatnonzero(new)


def _block_counts(sym: np.ndarray, a: int, block_len: int):
    """The distinct blocks of length ``block_len`` of ``sym``, as ascending
    base-``a`` keys, and their counts.

    Counts with ``np.bincount`` while there are at most
    ``BINCOUNT_KEYS_PER_BLOCK`` possible keys per block, and by sorting the
    keys in place otherwise.
    """
    if block_len * math.log2(a) >= 62:
        raise ConstraintViolationError("block keys exceed int64 range")
    m = sym.size - block_len + 1
    keys = _block_keys(sym, a, block_len, m)
    if a ** block_len <= BINCOUNT_KEYS_PER_BLOCK * m:
        counts = np.bincount(keys)
        keys = np.flatnonzero(counts)
        return keys, counts[keys]
    keys.sort()
    starts = _run_starts(keys)
    return keys[starts], np.diff(np.append(starts, m))


def block_entropy(stream: SymbolStream, block_len: int) -> float:
    """Empirical entropy (nats) of overlapping blocks of the given length."""
    if block_len == 0:
        return 0.0
    m = len(stream) - block_len + 1
    if m <= 0:
        raise InsufficientDataError("stream shorter than the block length")
    counts = _block_counts(stream.symbols, stream.alphabet_size, block_len)[1]
    return _count_entropy(counts, m)


def plugin_block_entropy(stream: SymbolStream, block_len: int = 12) -> float:
    """Conditional block estimator: H(block_len) - H(block_len - 1), nats.

    Requires length >= alphabet_size * 2**block_len so the longest blocks
    are not hopelessly undersampled.  Only the longer blocks are counted.
    The shorter blocks are their prefixes ``key // a`` plus the stream's
    last (block_len - 1)-block, so their counts are the longer blocks'
    counts summed over runs of equal prefixes, plus one at that last block.
    Both count arrays are in ascending key order, so each sum takes the
    same terms in the same order whichever way the blocks were counted.
    """
    if block_len < 1:
        raise ConstraintViolationError("block length must be >= 1")
    need = stream.alphabet_size * (1 << block_len)
    if len(stream) < need:
        raise InsufficientDataError(
            f"plug-in block estimator needs >= {need} symbols, "
            f"got {len(stream)}")
    a = stream.alphabet_size
    sym = stream.symbols
    m = len(stream) - block_len + 1
    keys, counts = _block_counts(sym, a, block_len)
    if block_len == 1:
        return _count_entropy(counts, m)
    heads = keys // a
    firsts = _run_starts(heads)
    short, heads = np.add.reduceat(counts, firsts), heads[firsts]
    last = int(_block_keys(sym[m:], a, block_len - 1, 1)[0])
    at = int(np.searchsorted(heads, last))
    if at < heads.size and heads[at] == last:
        short[at] += 1
    else:
        short = np.insert(short, at, 1)
    return _count_entropy(counts, m) - _count_entropy(short, m + 1)


def lz78_rate(stream: SymbolStream) -> float:
    """Incremental-parsing entropy estimate c ln(c) / n in nats.

    Downward biased at practical lengths; reported alongside the plug-in
    estimator, never compared against tight thresholds on its own.
    """
    sym = stream.symbols
    n = int(sym.size)
    if n < 2:
        raise InsufficientDataError("LZ parsing needs at least 2 symbols")
    alphabet = stream.alphabet_size
    phrases = 0
    if alphabet <= LZ78_LIST_ALPHABET:
        # node k of the trie is its offset k * alphabet in one flat list,
        # whose slot k * alphabet + s holds the offset of its child for
        # symbol s, or 0 (the root, never a child) when there is none
        children = [0] * alphabet
        blank = children[:]
        node = 0
        for s in sym.tobytes():  # one byte per symbol at these alphabets
            nxt = children[node + s]
            if nxt:
                node = nxt
            else:
                children[node + s] = len(children)
                children += blank
                phrases += 1
                node = 0
    else:
        # the trie's edge (node, symbol) is keyed node * alphabet + symbol
        table: dict[int, int] = {}
        node = 0
        for s in memoryview(sym):
            key = node * alphabet + s
            nxt = table.get(key)
            if nxt is None:
                phrases += 1
                table[key] = phrases
                node = 0
            else:
                node = nxt
    if node != 0:
        phrases += 1
    return phrases * math.log(phrases) / n


@dataclass(frozen=True)
class EntropyEstimate:
    method: str
    value: float
    detail: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {"method": self.method, "value": self.value, **self.detail}


def entropy_estimate(stream: SymbolStream, method: str = "plugin",
                     block_len: int = 12) -> EntropyEstimate:
    """Entropy rate estimate for a symbol stream, in nats per symbol."""
    if method == "plugin":
        value = plugin_block_entropy(stream, block_len)
        return EntropyEstimate("plugin", value,
                               {"block_len": block_len, "length": len(stream)})
    if method == "lz78":
        return EntropyEstimate("lz78", lz78_rate(stream),
                               {"length": len(stream)})
    raise ConstraintViolationError(f"unknown entropy method {method!r}")


# ---------------------------------------------------------------------------
# time change
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AbramovResult:
    """Entropy of the unit-speed flow for a given base entropy rate.

    The normalized suspension measure rescales time by the mean fiber
    length 2 * integral_r, so h_flow = h_base / (2 * integral_r).
    """

    h_base: float
    h_flow: float
    scale: float

    def as_dict(self) -> dict:
        def render(x: float):
            return "inf" if math.isinf(x) else x
        return {"h_base": render(self.h_base), "h_flow": render(self.h_flow),
                "scale": self.scale}


def abramov(h_base: float, integral_r: float) -> AbramovResult:
    """Convert a base entropy rate to the flow rate; infinity passes through."""
    if not integral_r > 0.0 or math.isinf(integral_r):
        raise ConstraintViolationError("roof integral must be finite positive")
    if math.isnan(h_base) or h_base < 0.0:
        raise ConstraintViolationError("base entropy must be >= 0")
    scale = 2.0 * integral_r
    return AbramovResult(h_base=h_base, h_flow=h_base / scale, scale=scale)
