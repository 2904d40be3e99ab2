"""The batch kernels on numpy lanes, for the pure-Python backend.

Without numba every kernel in ``kernels`` runs in the interpreter at a few
microseconds per orbit step or point.  ``lyap_orbits`` and
``birkhoff_h_orbits`` here take a batch of starts and move all of them in
lockstep, with numpy calls over the whole batch (the lanes), so that each
call's cost is shared by every lane.  What depends only on the base orbit
is computed ahead, ``WINDOW`` steps per call of ``_roof_walk``, which walks
the base orbit, evaluates the roof along it and finds each lane's first
band point or failed step: ``birkhoff_h_orbits`` evaluates h on a whole
walk, and ``lyap_orbits`` reads the roof and the cocycle from a window of
crossings, so that its time step only moves the heights.  The walk's base
steps come from ``_walk``, which moves a rotation lane inside its block
pair as one running sum.  The measure command's per-point kernels,
``roof_eval_batch``, ``base_step_batch`` and ``flow_time_one_batch``, take
one step per lane: the first two over the whole call, whose size the
sampler bounds by its blocks of ``POINT_BLOCK`` columns, and the time-one
map ``POINT_BLOCK`` lanes at a time, so their temporaries are of block size.
The time-one map reads each lane's roof from its caller.
On both backends, ``lab check``'s sandwich, beta and cocycle-algebra
checks use ``locate``, ``iet_step_inv``, ``canonicalize_k`` and
``lyap_orbits`` through ``lane_geometry``, and the quadrature of
``roof.roof_integral`` and ``roof.log_derivative_integral`` (hence every
command that integrates the roof) evaluates ``roof_eval`` on all blend
pieces at once.

Each lane gives the floats and status codes of the scalar kernel bit for
bit, and each roof and base-map rule, the sampler's band test included, is
one function here, the twin of one kernel.  Only IEEE-exact operations are
vectorised: + - * /, comparisons, abs, ``ldexp``, ``frexp`` and
``searchsorted``, and sums taken in the scalar loop's order
(``np.add.accumulate``).  Every ``log`` and ``exp`` goes through
``libm.elementwise``, which gives the bits of ``math``: by numpy's loop
where that calls libm, else lane by lane.  The roof functions assume the
invariant that ``RoofSpec`` enforces, 0 < b < l/2 on every interval.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import kernels
from .kernels import (
    FAM_EXPLICIT,
    FAM_ODOMETER,
    FAM_ROTATION,
    FAM_SWAP,
    INCONSISTENT,
    OK,
    SINGULARITY,
    TRUNCATION,
)
from .libm import elementwise


# ---------------------------------------------------------------------------
# base transformation
# ---------------------------------------------------------------------------


def _block_index(ratio):
    """Exponent n with ratio in (2^-n-1, 2^-n], as in the dyadic blocks."""
    m, e = np.frexp(ratio)
    e = e.astype(np.int64)
    return np.where(m == 0.5, 1 - e, -e)


def dyadic_block(x):
    """``kernels.dyadic_block`` on lanes: arrays ``(n, w)``."""
    g = 1.0 - x
    n = _block_index(g)
    w = np.ldexp(1.0, -n) - g
    low = x < 0.5
    return np.where(low, 0, n), np.where(low, x, w)


def scaled_dyadic_block(x, start):
    """``kernels.scaled_dyadic_block`` on lanes: arrays ``(n, w)``."""
    big = 1.0 - start
    g = 1.0 - x
    ratio = g / big
    n = _block_index(np.where(ratio > 1.0, 1.0, ratio))
    w = np.ldexp(big, -n) - g
    return n, np.where(w < 0.0, 0.0, w)


def _rotation_block(theta, n):
    """``kernels.rotation_block`` on lanes: arrays ``(block, cut)``."""
    block = np.ldexp(1.0, -n - 1)
    return block, (1.0 - theta) * block


def _last_at_or_below(table, x):
    """The table bisection's result: the last k with table[k] <= x, else 0."""
    lo = np.searchsorted(table, x, side="right") - 1
    return np.where(lo < 0, 0, lo)


def _explicit_locate(xs, x):
    """``kernels.explicit_locate`` on lanes: arrays ``(j, v)``."""
    nfinite = xs.shape[0] - 1
    tail_start = xs[nfinite]
    m, w = scaled_dyadic_block(x, tail_start)
    lo = _last_at_or_below(xs[:nfinite], x)
    past = x >= tail_start
    return np.where(past, nfinite + m, lo), np.where(past, w, x - xs[lo])


def _explicit_step(xs, aa, i, u):
    """Forward step of an explicit table: arrays ``(j, v, inconsistent)``."""
    nfinite = xs.shape[0] - 1
    if nfinite == 0:
        return i, u, np.zeros(i.shape[0], dtype=bool)
    tail = i >= nfinite
    k = np.where(tail, 0, i)
    x = xs[k] + aa[k] + u
    bad = ~tail & ((x < 0.0) | (x >= 1.0))
    j, v = _explicit_locate(xs, x)
    keep = tail | bad
    return np.where(keep, i, j), np.where(keep, u, v), bad


def _explicit_step_inv(xs, ys, yl, yi, i, u):
    """Backward step of an explicit table: arrays ``(j, v, inconsistent)``."""
    nfinite = xs.shape[0] - 1
    if nfinite == 0:
        return i, u, np.zeros(i.shape[0], dtype=bool)
    tail_start = xs[nfinite]
    tail = i >= nfinite
    x = np.where(tail, 1.0 - np.ldexp(1.0 - tail_start,
                                      -np.where(tail, i - nfinite, 0)),
                 xs[np.where(tail, 0, i)]) + u
    up = x >= tail_start
    m, w = scaled_dyadic_block(x, tail_start)
    # ys holds the sorted image starts of the finite intervals
    lo = _last_at_or_below(ys[:nfinite], x)
    bad = ~up & ~((x >= ys[lo]) & (x < ys[lo] + yl[lo]))
    stay = (up & tail) | bad
    j = np.where(up, nfinite + m, yi[lo])
    v = np.where(up, w, x - ys[lo])
    return np.where(stay, i, j), np.where(stay, u, v), bad


@functools.lru_cache(maxsize=16)
def _dyadic_tables(theta: float, ntr: int):
    """Per interval below ``ntr``: 2^-i-1, and the rotation's cut and gap.

    The same operations as the scalar step, done once per interval.
    """
    i = np.arange(ntr)
    block, cut = _rotation_block(theta, i >> 1)
    tables = (np.ldexp(1.0, -i - 1), cut, block - cut)
    for table in tables:
        table.setflags(write=False)  # shared by every caller
    return tables


def iet_step(base, i, u):
    """``kernels.iet_step`` on lanes: arrays ``(j, v, status)``.

    ``i`` is an int64 array of interval indices below the truncation and
    ``u`` a float array of offsets.  Lanes that leave the truncation come
    back with TRUNCATION and the index reached; INCONSISTENT lanes come back
    unchanged.
    """
    fam, theta, xs, aa, ys, yl, yi, ntr = base
    bad = None
    if fam == FAM_ROTATION:
        _, cuts, gaps = _dyadic_tables(theta, ntr)
        cut = cuts[i]
        x = np.where((i & 1) == 0, u + gaps[i], u)
        below = x < cut
        j = (i & -2) + ~below
        v = np.where(below, x, x - cut)
    elif fam == FAM_SWAP:
        j = i ^ 1
        v = u
    elif fam == FAM_ODOMETER:
        j, v = dyadic_block(_dyadic_tables(theta, ntr)[0][i] + u)
    else:
        j, v, bad = _explicit_step(xs, aa, i, u)
    return j, v, _step_status(j, ntr, bad)


def _step_status(j, ntr, bad=None):
    """TRUNCATION where ``j`` reaches ``ntr``, INCONSISTENT where ``bad``."""
    status = np.where(j >= ntr, TRUNCATION, OK)
    if bad is not None:
        status[bad] = INCONSISTENT
    return status


def iet_step_inv(base, i, u):
    """``kernels.iet_step_inv`` on lanes: arrays ``(j, v, status)``.

    The conventions of ``iet_step``: TRUNCATION lanes come back with the
    index reached, INCONSISTENT lanes unchanged.
    """
    fam, theta, xs, aa, ys, yl, yi, ntr = base
    bad = None
    if fam == FAM_ROTATION:
        n = i >> 1
        block, cut = _rotation_block(theta, n)
        w = np.where((i & 1) == 0, u, cut + u) + cut
        w = np.where(w >= block, w - block, w)
        right = ~(w < cut)
        j = (n << 1) + right
        v = np.where(right, w - cut, w)
    elif fam == FAM_SWAP:
        j = i ^ 1
        v = u
    elif fam == FAM_ODOMETER:
        # interval 0 maps back onto the blocks, the blocks onto [0.5, 1)
        first = i == 0
        e = np.frexp(u)[1].astype(np.int64)
        bad = first & (u <= 0.0)
        j = np.where(first & ~bad, -e, np.where(bad, i, 0))
        v = np.where(bad, u, np.where(first, u - np.ldexp(1.0, e - 1),
                                      (0.5 - np.ldexp(1.0, -i)) + u))
    else:
        j, v, bad = _explicit_step_inv(xs, ys, yl, yi, i, u)
    return j, v, _step_status(j, ntr, bad)


def locate(base, x):
    """``CountableIET.locate`` on lanes, for x in [0, 1): arrays ``(i, u,
    status)``, with TRUNCATION where the interval lies past the truncation."""
    fam, theta, xs, aa, ys, yl, yi, ntr = base
    if fam == FAM_EXPLICIT:
        i, u = _explicit_locate(xs, x)
    else:
        n, w = dyadic_block(x)
        if fam == FAM_ODOMETER:
            i, u = n, w
        else:
            # the left piece of block n is (1 - theta) or 1/2 of its length
            if fam == FAM_ROTATION:
                piece = _rotation_block(theta, n)[1]
            else:
                piece = np.ldexp(1.0, -n - 2)
            right = ~(w < piece)
            i = 2 * n + right
            u = np.where(right, w - piece, w)
    return i, u, _step_status(i, ntr)


# ---------------------------------------------------------------------------
# roof
# ---------------------------------------------------------------------------


def _in_band(u, l, band):
    """The scalar band test ``u < band*l or u > l - band*l``, on lanes."""
    return (u < band * l) | (u > l - band * l)


def _smooth_step(s):
    """``kernels.smooth_step`` on lanes: arrays ``(a, da)``."""
    x = 1.0 - s
    rare = ~(s > 1e-6) | ~(x > 1e-6)
    if rare.any():
        # saturated lanes take the step's end values; nearly flat lanes are
        # rare, and the scalar kernel does them
        a = np.where(s <= 0.0, 1.0, 0.0)
        da = np.zeros(s.shape[0])
        usual = ~rare
        a[usual], da[usual] = _smooth_step(s[usual])
        flat = rare & ~(s <= 0.0) & ~(s >= 1.0)
        for k in np.flatnonzero(flat).tolist():
            a[k], da[k] = kernels.smooth_step(float(s[k]))
        return a, da
    both = np.concatenate((x, s))
    e = elementwise(math.exp, -1.0 / both)
    de = e / (both * both)
    m = s.shape[0]
    num, oth = e[:m], e[m:]
    dnum, doth = -de[:m], de[m:]
    den = num + oth
    return num / den, (dnum * den - num * (doth + dnum)) / (den * den)


def roof_eval(u, b, l, value=True):
    """``kernels.roof_eval`` on lanes: arrays ``(r, dr)``, bit for bit.

    ``b`` and ``l`` hold each lane's blend width and interval length, with
    0 < b < l/2.  With ``value=False`` only ``dr`` is computed (``r`` is
    None), which skips the logarithms of the spike pieces.
    """
    n = u.shape[0]
    r = np.ones(n) if value else None
    dr = np.zeros(n)
    half = 0.5 * b
    v = l - u
    # b < l/2 makes every lane with u < b a left lane with v > b, and every
    # other lane has u >= b > b/2: so the pieces follow from two tests each
    spike = (u < half) | ~(v > half)
    flat_mid = (v > b) & ~(u < b)
    edge = (u <= 0.0) | (u >= l)
    if edge.any():
        for k in np.flatnonzero(edge).tolist():
            rk, drk, _ = kernels.roof_eval(float(u[k]), float(b[k]),
                                           float(l[k]))
            if value:
                r[k] = rk
            dr[k] = drk
        spike &= ~edge
        flat_mid |= edge
    left = u < v  # the nearer end, on spike and blend lanes
    w = np.where(left, u, v)
    sp = np.flatnonzero(spike)
    if sp.size:
        ws = w[sp]
        dr[sp] = np.where(left[sp], -1.0, 1.0) / ws
        if value:
            r[sp] = 1.0 - elementwise(math.log, ws / b[sp])
    bl = np.flatnonzero(~(spike | flat_mid))
    if bl.size:
        wb = w[bl]
        bb = b[bl]
        t = wb / bb
        a, da = _smooth_step(2.0 * t - 1.0)
        fm1 = -elementwise(math.log, t)
        lb = left[bl]
        g = np.where(lb, da, -da) * (2.0 / bb) * fm1
        aw = a / wb
        dr[bl] = np.where(lb, g - aw, g + aw)
        if value:
            r[bl] = 1.0 + a * fm1
    return r, dr


# ---------------------------------------------------------------------------
# batch orbit kernels
# ---------------------------------------------------------------------------

#: Base steps per ``_roof_walk`` call: per look-ahead window of
#: ``lyap_orbits`` and per block of ``birkhoff_h_orbits``.
WINDOW = 32


def _walk(base, i, u, span):
    """``span`` base steps from each lane's point ``(i, u)``.

    Returns ``(orbit_i, orbit_u, first, code)``: the points visited, of
    shape ``(span + 1, lanes)`` with the start in row 0, and each lane's
    first failed step (``span`` if none) with its status.  A failed lane
    stays put, inside the truncation, so its later rows repeat its point.

    A rotation lane never leaves its block pair, whose cut and gap it
    gathers once.  The walk then iterates ``iet_step``'s sum before the
    split, x' = x + gap below the cut and x - cut above it, and splits every
    row at the end: the same operations as ``iet_step``, so the same bits.
    A walk in which some lane's pair reaches the truncation takes the loop
    over ``iet_step`` instead.
    """
    count = i.shape[0]
    orbit_i = np.empty((span + 1, count), dtype=np.int64)
    orbit_u = np.empty((span + 1, count))
    orbit_i[0] = i
    orbit_u[0] = u
    first = np.full(count, span)
    code = np.zeros(count, dtype=np.int64)
    fam, theta, ntr = base[0], base[1], base[-1]
    if fam == FAM_ROTATION and not np.any((i | 1) >= ntr):
        _, cuts, gaps = _dyadic_tables(theta, ntr)
        cut, gap = cuts[i], gaps[i]
        x = orbit_u[1:]  # the sums before the split, split in place below
        x[0] = np.where((i & 1) == 0, u + gap, u)
        for s in range(1, span):
            prev = x[s - 1]
            x[s] = np.where(prev < cut, prev + gap, prev - cut)
        below = x < cut
        np.add(i & -2, ~below, out=orbit_i[1:])
        np.subtract(x, cut, out=x, where=~below)
        return orbit_i, orbit_u, first, code
    for s in range(span):
        j, v, st = iet_step(base, i, u)
        if st.any():
            failed = st != OK
            new = failed & (first == span)
            first[new] = s
            code[new] = st[new]
            j = np.where(failed, i, j)
            v = np.where(failed, u, v)
        orbit_i[s + 1] = i = j
        orbit_u[s + 1] = u = v
    return orbit_i, orbit_u, first, code


def _roof_walk(base, roof, i, u, span, value=True):
    """``span`` base steps from lanes ``(i, u)``, the roof along them, and
    each lane's first event.

    Returns ``(orbit_i, orbit_u, r, dr, at, code)``: the walk of ``_walk``;
    ``roof_eval``'s r and dr at its first ``span`` rows, each of shape
    ``(span, lanes)`` (r is None unless ``value``); and each lane's first
    event as a step ``at`` with its status ``code``.  A row's band check
    comes before its base step, so the event is the first row in the
    exclusion band (SINGULARITY) or the first failed base step (its
    status), whichever comes first, and ``(span, OK)`` if neither happens.
    """
    lengths, bs, band = roof
    orbit_i, orbit_u, first, code = _walk(base, i, u, span)
    pi, pu = orbit_i[:span], orbit_u[:span]
    l = lengths[pi]
    bad = _in_band(pu, l, band)
    at = np.where(bad.any(axis=0), np.argmax(bad, axis=0), span)
    code = np.where(at <= first, np.where(at < span, SINGULARITY, OK), code)
    r, dr = roof_eval(pu.ravel(), bs[pi].ravel(), l.ravel(), value)
    shape = (span, i.shape[0])
    if value:
        r = r.reshape(shape)
    return orbit_i, orbit_u, r, dr.reshape(shape), np.minimum(at, first), code


def _window(base, roof, i, u, m21):
    """The next ``WINDOW`` crossings of cocycle lanes at base points
    ``(i, u)`` whose cocycle's lower-left entry is ``m21``.

    Entry m of a lane's window is its state after m more crossings: the base
    point, the roof there, and m21.  Returns these as flat arrays, lane
    after lane (``WINDOW + 1`` entries each; the last entry's roof is never
    read), then each lane's event: the entry at which it stops and what
    happens there.  That is SINGULARITY for an entry in the exclusion band,
    the status of a failed base step for the entry past it, and OK for the
    window's end.
    """
    orbit_i, orbit_u, r, dr, at, event = _roof_walk(base, roof, i, u, WINDOW)
    # the scalar loop's m21 + s with s = -2 r', summed in the same order
    m21 = np.add.accumulate(np.vstack((m21, -2.0 * dr)), axis=0)
    r = np.vstack((r, np.zeros(i.shape[0])))
    # a failed base step stops its lane at the entry past the step
    stop = at + ((event != OK) & (event != SINGULARITY))
    return (*(a.T.ravel() for a in (orbit_i, orbit_u, r, m21)), stop, event)


def lyap_orbits(base, roof, idx, off, hei, cps, out_m21, out_k, out_i, out_u,
                out_y, out_fail, status):
    """``kernels.lyap_orbits``, all lanes stepped in lockstep.

    Only the heights depend on time.  The base orbit, the roof along it and
    the cocycle come from windows of ``WINDOW`` crossings (``_window``), so
    a time step moves the heights and each crossing lane's pointer into its
    window.  The cocycle there is exact: it is the shear (1, 0; m21, 1),
    and m21 is the scalar loop's running sum of -2 r', which
    ``np.add.accumulate`` takes in the same order.  When one lane reaches
    its window's end, every live lane gets a new window from the entry it
    is at.  A lane moves at most one entry per step, so steps run in rounds
    that end before any lane can reach its event.  A failed lane retires,
    and its checkpoints are no longer written: at the step of its failed
    crossing, or at the first step after it reached a point in the
    exclusion band.
    """
    count = idx.shape[0]
    status[:] = OK
    out_fail[:] = -1
    lane = np.arange(count)
    y = np.array(hei, dtype=np.float64)
    k0 = np.zeros(count, dtype=np.int64)  # crossings before entry 0
    win = row0 = pos = stop = event = None

    def refill(i, u, m21):
        """New windows for the live lanes, from their states."""
        nonlocal win, row0, pos, stop, event
        *win, stop, event = _window(base, roof, i, u, m21)
        row0 = np.arange(i.shape[0]) * (WINDOW + 1)
        pos = row0.copy()
        stop = row0 + stop

    def retire(gone, codes, at):
        nonlocal lane, y, k0, row0, pos, stop, event
        status[lane[gone]] = codes
        out_fail[lane[gone]] = at
        keep = ~gone
        lane, y, k0, row0, pos, stop, event = (
            a[keep] for a in (lane, y, k0, row0, pos, stop, event))

    refill(np.array(idx, dtype=np.int64), np.array(off, dtype=np.float64),
           np.zeros(count))
    step = 0
    for ci in range(cps.shape[0]):
        target = cps[ci]
        while step < target and lane.size:
            due = pos == stop
            if due.any():
                if np.any(due & (event == OK)):
                    wi, wu, wr, wm = win
                    k0 = k0 + (pos - row0)
                    refill(wi[pos], wu[pos], wm[pos])
                    due = pos == stop
                gone = due & (event == SINGULARITY)
                if gone.any():
                    retire(gone, SINGULARITY, step)
                    if not lane.size:
                        break
            span = min(int(target) - step, int((stop - pos).min()))
            wr = win[2]
            for _ in range(span):
                r = wr[pos]
                y1 = y + 1.0
                under = y1 < r
                y = np.where(under, y1, y1 - 2.0 * r)
                pos += ~under
            step += span
            due = pos == stop
            if due.any():
                # a failed base step retires its lane at the step that crossed
                gone = due & (event != OK) & (event != SINGULARITY)
                if gone.any():
                    retire(gone, event[gone], step - 1)
        wi, wu, wr, wm = win
        out_m21[lane, ci] = wm[pos]
        out_k[lane, ci] = k0 + (pos - row0)
        out_i[lane, ci] = wi[pos]
        out_u[lane, ci] = wu[pos]
        out_y[lane, ci] = y
    return count - lane.shape[0]


def birkhoff_h_orbits(base, roof, idx, off, cps, out_sum, status):
    """``kernels.birkhoff_h_orbits``, all lanes stepped in lockstep.

    The base orbit does not depend on h, so the lanes first take up to
    ``WINDOW`` base steps, and h is then evaluated at all points of the
    walk at once and summed step by step, in the scalar loop's order.  A
    lane fails at its first point in the exclusion band or its first failed
    base step, whichever comes first; it retires, and its later checkpoints
    are not written.
    """
    lane = np.arange(idx.shape[0])
    i = np.array(idx, dtype=np.int64)
    u = np.array(off, dtype=np.float64)
    tot = np.zeros(lane.shape[0])
    status[:] = OK
    step = 0
    for ci in range(cps.shape[0]):
        while step < cps[ci] and lane.size:
            span = min(WINDOW, int(cps[ci]) - step)
            orbit_i, orbit_u, _, dr, first, code = _roof_walk(
                base, roof, i, u, span, value=False)
            i, u = orbit_i[span], orbit_u[span]
            h = 2.0 + 2.0 * np.abs(dr)
            failed = first < span
            if failed.any():
                status[lane[failed]] = code[failed]
                keep = ~failed
                lane, i, u, tot = lane[keep], i[keep], u[keep], tot[keep]
                h = h[:, keep]
            for row in h:
                tot += row
            step += span
        out_sum[lane, ci] = tot
    return idx.shape[0] - lane.shape[0]


# ---------------------------------------------------------------------------
# per-point batch kernels
# ---------------------------------------------------------------------------

#: Lanes per block of ``flow_time_one_batch`` and columns per block of a
#: round of ``measure.sample_mu``, which bounds their temporaries.
POINT_BLOCK = 8192


def roof_eval_batch(roof, idx, off, out_r, out_slope):
    """``kernels.roof_eval_batch`` on lanes."""
    lengths, bs, band = roof
    out_r[:], out_slope[:] = roof_eval(off, bs[idx], lengths[idx])
    return 0


def base_step_batch(base, idx, off, status):
    """``kernels.base_step_batch`` on lanes: a failed lane keeps its point."""
    j, v, st = iet_step(base, idx, off)
    ok = st == OK
    np.copyto(idx, j, where=ok)
    np.copyto(off, v, where=ok)
    status[:] = st
    return idx.shape[0] - int(np.count_nonzero(ok))


def flow_time_one_batch(base, roof, idx, off, hei, r, status):
    """``kernels.flow_time_one_batch`` on lanes, ``POINT_BLOCK`` at a time.

    A lane in the exclusion band keeps its point with SINGULARITY.  A lane
    with y + 1 < r climbs by one; any other crosses, taking the base step,
    and keeps its point with the step's status if that fails.
    """
    lengths, _, band = roof
    bad = 0
    for lo in range(0, idx.shape[0], POINT_BLOCK):
        i, u, y, top = (a[lo:lo + POINT_BLOCK] for a in (idx, off, hei, r))
        st = np.where(_in_band(u, lengths[i], band), SINGULARITY, OK)
        y1 = y + 1.0
        climb = st == OK
        at = np.flatnonzero(climb & ~(y1 < top))
        climb[at] = False
        y[climb] = y1[climb]
        j, v, stepped = iet_step(base, i[at], u[at])
        st[at] = stepped
        ok = stepped == OK
        at = at[ok]
        i[at] = j[ok]
        u[at] = v[ok]
        y[at] = y1[at] - 2.0 * top[at]
        status[lo:lo + POINT_BLOCK] = st
        bad += int(np.count_nonzero(st != OK))
    return bad


# ---------------------------------------------------------------------------
# canonical form
# ---------------------------------------------------------------------------


def canonicalize_k(base, roof, idx, off, hei, max_glue):
    """``kernels.canonicalize_k`` on lanes: arrays ``(i, u, y, status)``.

    Each round glues every live lane once, up or down, as one pass of the
    scalar loop does.  A lane that fails keeps the point it had before the
    failing step; lanes still gluing after ``max_glue`` rounds come back
    INCONSISTENT.
    """
    lengths, bs, band = roof
    i = np.array(idx, dtype=np.int64)
    u = np.array(off, dtype=np.float64)
    y = np.array(hei, dtype=np.float64)
    status = np.full(i.shape[0], INCONSISTENT)
    live = np.arange(i.shape[0])
    for _ in range(max_glue):
        if not live.size:
            break
        li, lu, ly = i[live], u[live], y[live]
        code = np.full(live.shape[0], -1)  # -1 while the lane glues on
        l = lengths[li]
        code[_in_band(lu, l, band)] = SINGULARITY
        ok = np.flatnonzero(code < 0)
        r = roof_eval(lu[ok], bs[li[ok]], l[ok])[0]
        up = ly[ok] >= r
        # up: (x, y) -> (Tx, y - 2 r(x))
        at = ok[up]
        j, v, st = iet_step(base, li[at], lu[at])
        moved = st == OK
        code[at[~moved]] = st[~moved]
        at = at[moved]
        y_up = ly[at] - 2.0 * r[up][moved]
        li[at], lu[at], ly[at] = j[moved], v[moved], y_up
        # down: (x, y) -> (T^-1 x, y + 2 r(T^-1 x)) while y < -r(T^-1 x)
        at = ok[~up]
        j, v, st = iet_step_inv(base, li[at], lu[at])
        moved = st == OK
        code[at[~moved]] = st[~moved]
        at, j, v = at[moved], j[moved], v[moved]
        lj = lengths[j]
        near = _in_band(v, lj, band)
        code[at[near]] = SINGULARITY
        at, j, v, lj = at[~near], j[~near], v[~near], lj[~near]
        rp = roof_eval(v, bs[j], lj)[0]
        glue = ly[at] < -rp
        code[at[~glue]] = OK
        at = at[glue]
        li[at], lu[at], ly[at] = j[glue], v[glue], ly[at] + 2.0 * rp[glue]
        i[live], u[live], y[live] = li, lu, ly
        done = code >= 0
        status[live[done]] = code[done]
        live = live[~done]
    return i, u, y, status
