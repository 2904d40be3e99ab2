"""Hot numerical kernels for base-map orbits, roof evaluation and the flow.

Everything in this module is written in the numba-compatible subset of
Python.  When numba is importable and the environment variable ``LAB_NUMBA``
is not set to ``0``/``false``, the functions are JIT compiled with
``@njit(cache=True, nogil=True)``; otherwise the plain Python definitions run
unchanged, so the package still works (slower) without a functional numba.
``perfbench/`` times the kernels per layer inside whole ``lab`` runs.

The batch kernels ``lyap_orbits``, ``birkhoff_h_orbits``,
``roof_eval_batch``, ``base_step_batch`` and ``flow_time_one_batch`` loop
over the scalar kernels, one lane per start or point.  Callers reach them
through ``batch_kernels()``: under numba it returns this module; without it
the twins in ``lanes``, which step all lanes together with numpy and give
the same bits.

Conventions
-----------
Base transformations are dispatched on an integer family code:

    0  block rotation        (dyadic blocks, 2-interval rotation per block)
    1  block swap            (the two halves of each dyadic block swapped)
    2  odometer              (von Neumann-Kakutani adding machine)
    3  explicit table        (finite table + dyadic identity tail)

The base map travels as one tuple ``base = (family, theta, xs, aa, ys, yl,
yi, ntr)`` (``CountableIET.pack()``) and the roof as ``roof = (lengths,
widths, band)`` (``RoofSpec.pack()``).

Base points are fiber coordinates ``(interval index i, offset u)`` with
``0 <= u < length(i)``.  Offsets are never converted to absolute
coordinates inside kernels, so relative precision is uniform however close
the interval sits to the accumulation point at 1.

Each roof and base-map rule is one kernel, of the shape of its twin of
the same name in ``lanes`` (private there but for ``roof_eval``):
``in_band``, ``roof_eval``, ``last_at_or_below``, ``block_index``,
``rotation_block`` and ``step_status``.  The time-one rule is one kernel,
``time_one_under``, which ``time_one`` calls with the roof it evaluates and
``flow_time_one_batch`` with the roof its caller passes.

Orbit kernels report integer status codes (see ``errors``):
0 ok, 1 singularity band, 2 truncation exceeded, 3 inconsistent data.
Only ``iet_step`` and ``iet_step_inv`` detect truncation, and the orbit
kernels pass their status on.  ``code_orbit`` has no lane twin: without
numba it is a long scalar loop (one orbit is one lane); on the odometer,
``measure.coded_orbit_stream`` codes starts on the 2^-53 grid as a
bit-reversed counter instead and calls it for the rest.
"""

import math
import os
import sys

try:
    import numba

    _HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised via LAB_NUMBA=0 instead
    numba = None
    _HAVE_NUMBA = False


def _env_wants_numba() -> bool:
    value = os.environ.get("LAB_NUMBA", "").strip().lower()
    return value not in ("0", "false", "off", "no")


#: True when the kernels below are JIT compiled in this process.
NUMBA_ENABLED = _HAVE_NUMBA and _env_wants_numba()


def kernel(func):
    """JIT compile ``func`` when enabled, otherwise return it unchanged."""
    if NUMBA_ENABLED:
        return numba.njit(cache=True, nogil=True)(func)
    return func


def batch_kernels():
    """The module holding the batch kernels of this backend.

    Under numba, this one: compiled loops over the scalar kernels.
    Otherwise ``lanes``: numpy lanes with the same bits, imported on first
    use.
    """
    if NUMBA_ENABLED:
        return sys.modules[__name__]
    from . import lanes
    return lanes


FAM_ROTATION = 0
FAM_SWAP = 1
FAM_ODOMETER = 2
FAM_EXPLICIT = 3

OK = 0
SINGULARITY = 1
TRUNCATION = 2
INCONSISTENT = 3


# ---------------------------------------------------------------------------
# smooth bump used by the roof blend
# ---------------------------------------------------------------------------


@kernel
def smooth_sigma(t):
    """sigma(t) = exp(-1/t), extended by 0 for t <= 0 (flat to all orders at
    0), and its derivative exp(-1/t) / t^2: ``(sigma, sigma')``."""
    if t <= 1e-6:
        # exp(-1/t) underflows below t ~ 1.4e-3; cutting early keeps the
        # derivative formula free of 0 * inf.
        return 0.0, 0.0
    e = math.exp(-1.0 / t)
    return e, e / (t * t)


@kernel
def smooth_step(t):
    """Decreasing C^inf step on [0, 1]: value 1 at t<=0, 0 at t>=1.

    Returns ``(alpha(t), alpha'(t))`` for
    alpha(t) = sigma(1-t) / (sigma(t) + sigma(1-t)), sigma(s) = exp(-1/s).
    """
    if t <= 0.0:
        return 1.0, 0.0
    if t >= 1.0:
        return 0.0, 0.0
    num, dnum = smooth_sigma(1.0 - t)
    oth, doth = smooth_sigma(t)
    dnum = -dnum
    den = num + oth
    a = num / den
    da = (dnum * den - num * (doth + dnum)) / (den * den)
    return a, da


# ---------------------------------------------------------------------------
# roof function: value and derivative in fiber coordinates
# ---------------------------------------------------------------------------


@kernel
def in_band(u, l, band):
    """True when offset ``u`` is within ``band * l`` of an end of [0, l)."""
    return u < band * l or u > l - band * l


@kernel
def roof_eval(u, b, l):
    """Roof value and derivative at offset ``u`` in an interval of length ``l``.

    The interval splits at b/2, b, l-b, l-b/2 into five pieces: logarithmic
    spikes at both ends, blend pieces driven by the smooth step, and a flat
    middle at height 1.  ``b`` is the blend width (0 < b < l/2).  The ends
    mirror each other, with w the distance to the nearer end; every piece is
    closed on the left, so the tests on v = l - u admit equality and those
    on u not.

    Returns ``(r, dr, piece)`` with piece in 1..5.  Offsets at or outside the
    interval ends return infinities instead of raising so that the JIT and
    plain paths behave identically.
    """
    if u <= 0.0:
        return math.inf, -math.inf, 1
    if u >= l:
        return math.inf, math.inf, 5
    half = 0.5 * b
    v = l - u
    left = u < v
    w = u if left else v
    if u < half or not v > half:
        r = 1.0 - math.log(w / b)
        return r, (-1.0 if left else 1.0) / w, 1 if left else 5
    if v > b and not u < b:
        return 1.0, 0.0, 3
    t = w / b
    a, da = smooth_step(2.0 * t - 1.0)
    fm1 = -math.log(t)
    g = (da if left else -da) * (2.0 / b) * fm1
    aw = a / w
    return 1.0 + a * fm1, g - aw if left else g + aw, 2 if left else 4


@kernel
def roof_eval_batch(roof, idx, off, out_r, out_slope):
    lengths, bs, band = roof
    for k in range(idx.shape[0]):
        i = idx[k]
        r, dr, piece = roof_eval(off[k], bs[i], lengths[i])
        out_r[k] = r
        out_slope[k] = dr
    return 0


# ---------------------------------------------------------------------------
# dyadic block bookkeeping
# ---------------------------------------------------------------------------


@kernel
def block_index(ratio):
    """Exponent n with ratio in (2^-n-1, 2^-n], as in the dyadic blocks."""
    m, e = math.frexp(ratio)
    if m == 0.5:
        return 1 - e
    return -e


@kernel
def dyadic_block(x):
    """Block index n and offset w for the partition [1-2^-n, 1-2^-n-1).

    Exact for every float x in [0, 1): for x >= 0.5 the gap g = 1 - x is a
    Sterbenz-exact subtraction and w = 2^-n - g is again exact because both
    operands lie within a factor of two.
    """
    if x < 0.5:
        return 0, x
    g = 1.0 - x
    n = block_index(g)
    return n, math.ldexp(1.0, -n) - g


@kernel
def scaled_dyadic_block(x, start):
    """Block index and offset for dyadic blocks of [start, 1): the m-th block
    is [1 - G 2^-m, 1 - G 2^-m-1) with G = 1 - start."""
    big = 1.0 - start
    g = 1.0 - x
    ratio = g / big
    if ratio > 1.0:
        ratio = 1.0
    n = block_index(ratio)
    w = math.ldexp(big, -n) - g
    if w < 0.0:
        w = 0.0
    return n, w


# ---------------------------------------------------------------------------
# base transformation: lengths, forward and inverse steps
# ---------------------------------------------------------------------------


@kernel
def rotation_block(theta, n):
    """Length 2^-n-1 of rotation block n, and its cut (1 - theta) 2^-n-1."""
    block = math.ldexp(1.0, int(-n - 1))
    return block, (1.0 - theta) * block


@kernel
def last_at_or_below(table, n, x):
    """Bisection of the sorted ``table[:n]``: last k with table[k] <= x."""
    lo = 0
    hi = n
    while hi - lo > 1:
        mid = (lo + hi) >> 1
        if x < table[mid]:
            hi = mid
        else:
            lo = mid
    return lo


@kernel
def step_status(j, ntr):
    """TRUNCATION when a step reaches interval ``j >= ntr``, else OK."""
    if j >= ntr:
        return TRUNCATION
    return OK


@kernel
def iet_length(base, i):
    """Length of interval ``i`` of the base map ``base``."""
    fam, theta, xs, aa, ys, yl, yi, ntr = base
    if fam == FAM_ROTATION:
        block, cut = rotation_block(theta, i >> 1)
        if (i & 1) == 0:
            return cut
        return block - cut
    if fam == FAM_SWAP:
        return math.ldexp(1.0, int(-(i >> 1) - 2))
    if fam == FAM_ODOMETER:
        return math.ldexp(1.0, int(-i - 1))
    nfinite = xs.shape[0] - 1
    if i < nfinite:
        return xs[i + 1] - xs[i]
    return math.ldexp(1.0 - xs[nfinite], int(-(i - nfinite) - 1))


@kernel
def explicit_locate(xs, x):
    """Locate absolute ``x`` within an explicit table (finite part + tail)."""
    nfinite = xs.shape[0] - 1
    tail_start = xs[nfinite]
    if x >= tail_start:
        m, w = scaled_dyadic_block(x, tail_start)
        return nfinite + m, w
    lo = last_at_or_below(xs, nfinite, x)
    return lo, x - xs[lo]


@kernel
def iet_step(base, i, u):
    """One forward step of the base map in fiber coordinates.

    Returns ``(j, v, status)``.  An image at or past the truncation index
    ``ntr`` comes back with status TRUNCATION and ``j`` the index reached;
    on INCONSISTENT the input point comes back unchanged.
    """
    fam, theta, xs, aa, ys, yl, yi, ntr = base
    if fam == FAM_ROTATION:
        block, cut = rotation_block(theta, i >> 1)
        if (i & 1) == 0:
            w = u + (block - cut)
            if w < cut:
                j = i
                v = w
            else:
                j = i + 1
                v = w - cut
        elif u < cut:
            j = i - 1
            v = u
        else:
            j = i
            v = u - cut
    elif fam == FAM_SWAP:
        j = i + 1 if (i & 1) == 0 else i - 1
        v = u
    elif fam == FAM_ODOMETER:
        if i == 0:
            x = 0.5 + u
        else:
            x = math.ldexp(1.0, int(-i - 1)) + u
        j, v = dyadic_block(x)
    elif i >= xs.shape[0] - 1:
        # identity tail of an explicit table
        j = i
        v = u
    else:
        x = xs[i] + aa[i] + u
        if x < 0.0 or x >= 1.0:
            return i, u, INCONSISTENT
        j, v = explicit_locate(xs, x)
    return j, v, step_status(j, ntr)


@kernel
def iet_step_inv(base, i, u):
    """One backward step of the base map; same conventions as ``iet_step``."""
    fam, theta, xs, aa, ys, yl, yi, ntr = base
    if fam == FAM_ROTATION:
        n = i >> 1
        block, cut = rotation_block(theta, n)
        w = u if (i & 1) == 0 else cut + u
        w = w + cut
        if w >= block:
            w = w - block
        if w < cut:
            j = n << 1
            v = w
        else:
            j = (n << 1) + 1
            v = w - cut
    elif fam == FAM_SWAP:
        j = i + 1 if (i & 1) == 0 else i - 1
        v = u
    elif fam == FAM_ODOMETER:
        if i == 0:
            if u <= 0.0:
                return i, u, INCONSISTENT
            mant, e = math.frexp(u)
            j = -e
            v = u - math.ldexp(1.0, int(-j - 1))
        else:
            j = 0
            v = (0.5 - math.ldexp(1.0, int(-i))) + u
    else:
        # explicit table
        nfinite = xs.shape[0] - 1
        tail_start = xs[nfinite]
        if i < nfinite:
            x = xs[i] + u
        else:
            x = 1.0 - math.ldexp(1.0 - tail_start, int(-(i - nfinite))) + u
        if nfinite == 0 or (x >= tail_start and i >= nfinite):
            j = i
            v = u
        elif x >= tail_start:
            m, v = scaled_dyadic_block(x, tail_start)
            j = nfinite + m
        else:
            # ys holds the sorted image starts of the finite intervals
            lo = last_at_or_below(ys, nfinite, x)
            if not (x >= ys[lo] and x < ys[lo] + yl[lo]):
                return i, u, INCONSISTENT
            j = yi[lo]
            v = x - ys[lo]
    return j, v, step_status(j, ntr)


# ---------------------------------------------------------------------------
# suspension flow: time-one map, canonical form, orbit accumulators
# ---------------------------------------------------------------------------


@kernel
def time_one(base, roof, i, u, y):
    """Time-one map of the unit-speed vertical flow.

    Returns ``(i, u, y, m21_increment, crossed, status)``.  A crossing
    contributes ``-2 r'(x)`` to the lower-left cocycle entry.
    """
    lengths, bs, band = roof
    r, dr, piece = roof_eval(u, bs[i], lengths[i])
    return time_one_under(base, roof, i, u, y, r, dr)


@kernel
def time_one_under(base, roof, i, u, y, r, dr):
    """``time_one`` with the roof ``r`` and slope ``dr`` given: for y < 0,
    r(T^-1 x) decides as r(x) does, since y + 1 < 1 <= r off the band."""
    lengths, bs, band = roof
    if in_band(u, lengths[i], band):
        return i, u, y, 0.0, 0, SINGULARITY
    if y + 1.0 < r:
        return i, u, y + 1.0, 0.0, 0, OK
    j, v, st = iet_step(base, i, u)
    if st != OK:
        return i, u, y, 0.0, 0, st
    return j, v, y + 1.0 - 2.0 * r, -2.0 * dr, 1, OK


@kernel
def canonicalize_k(base, roof, i, u, y, max_glue):
    """Apply the gluing relation until y lies in [-r(T^-1 x), r(x)).

    Returns ``(i, u, y, status)``.
    """
    lengths, bs, band = roof
    for _ in range(max_glue):
        l = lengths[i]
        if in_band(u, l, band):
            return i, u, y, SINGULARITY
        r, dr, piece = roof_eval(u, bs[i], l)
        if y >= r:
            j, v, st = iet_step(base, i, u)
            if st != OK:
                return i, u, y, st
            i = j
            u = v
            y = y - 2.0 * r
            continue
        j, v, st = iet_step_inv(base, i, u)
        if st != OK:
            return i, u, y, st
        lj = lengths[j]
        if in_band(v, lj, band):
            return i, u, y, SINGULARITY
        rp, drp, piecep = roof_eval(v, bs[j], lj)
        if y < -rp:
            i = j
            u = v
            y = y + 2.0 * rp
            continue
        return i, u, y, OK
    return i, u, y, INCONSISTENT


@kernel
def lyap_orbit(base, roof, i, u, y, cps, out_m21, out_k, out_i, out_u, out_y,
               out_fail):
    """Iterate the time-one map, accumulating the flow's cocycle.

    Every factor is a shear (1, 0; -2 r'(x), 1), one per crossing at base
    point x, so the cocycle is (1, 0; m21, 1) with m21 the running sum of
    -2 r'.  At each checkpoint ``cps[ci]`` (a strictly increasing int64
    array of step counts) m21, the crossing count and the state are stored.
    On failure the offending step index lands in ``out_fail[0]``.
    """
    m21 = 0.0
    k = 0
    step = 0
    out_fail[0] = -1
    for ci in range(cps.shape[0]):
        target = cps[ci]
        while step < target:
            i, u, y, s, crossed, st = time_one(base, roof, i, u, y)
            if st != OK:
                out_fail[0] = step
                return st
            if crossed:
                m21 = m21 + s
                k += 1
            step += 1
        out_m21[ci] = m21
        out_k[ci] = k
        out_i[ci] = i
        out_u[ci] = u
        out_y[ci] = y
    return OK


@kernel
def birkhoff_h_orbit(base, roof, i, u, cps, out_sum):
    """Birkhoff sums of h = 2 + 2|r'| along the base orbit.

    ``out_sum[ci]`` receives sum_{m < cps[ci]} h(T^m x).
    """
    lengths, bs, band = roof
    tot = 0.0
    step = 0
    for ci in range(cps.shape[0]):
        target = cps[ci]
        while step < target:
            l = lengths[i]
            if in_band(u, l, band):
                return SINGULARITY
            r, dr, piece = roof_eval(u, bs[i], l)
            tot += 2.0 + 2.0 * abs(dr)
            j, v, st = iet_step(base, i, u)
            if st != OK:
                return st
            i = j
            u = v
            step += 1
        out_sum[ci] = tot
    return OK


@kernel
def lyap_orbits(base, roof, idx, off, hei, cps, out_m21, out_k, out_i, out_u,
                out_y, out_fail, status):
    """``lyap_orbit`` for a batch of starts (the lanes).

    Lane k starts at ``(idx[k], off[k], hei[k])`` and writes row k of each
    two-dimensional ``out_*`` array, its fail step to ``out_fail[k]`` and
    its status to ``status[k]``.  Returns the number of failed lanes.
    ``lanes.lyap_orbits`` computes the same with numpy: the heights of all
    lanes in lockstep, the base orbit, roof and cocycle in windows of
    crossings.
    """
    bad = 0
    for k in range(idx.shape[0]):
        st = lyap_orbit(base, roof, idx[k], off[k], hei[k], cps, out_m21[k],
                        out_k[k], out_i[k], out_u[k], out_y[k],
                        out_fail[k:k + 1])
        status[k] = st
        if st != OK:
            bad += 1
    return bad


@kernel
def birkhoff_h_orbits(base, roof, idx, off, cps, out_sum, status):
    """``birkhoff_h_orbit`` for a batch of starts (the lanes).

    Lane k starts at ``(idx[k], off[k])`` and writes row k of ``out_sum``
    and its status to ``status[k]``.  Returns the number of failed lanes.
    ``lanes.birkhoff_h_orbits`` computes the same in lockstep with numpy.
    """
    bad = 0
    for k in range(idx.shape[0]):
        st = birkhoff_h_orbit(base, roof, idx[k], off[k], cps, out_sum[k])
        status[k] = st
        if st != OK:
            bad += 1
    return bad


@kernel
def flow_time_one_batch(base, roof, idx, off, hei, r, status):
    """Apply the time-one map in place to arrays of points, under the
    roofs ``r`` (``PointBatch.roof``, or ``roof_eval_batch``'s r).

    Per-point status codes are written to ``status``; returns the number of
    failures.
    """
    bad = 0
    for kk in range(idx.shape[0]):
        i, u, y, ds, crossed, st = time_one_under(base, roof, idx[kk],
                                                  off[kk], hei[kk], r[kk],
                                                  0.0)
        status[kk] = st
        if st == OK:
            idx[kk] = i
            off[kk] = u
            hei[kk] = y
        else:
            bad += 1
    return bad


@kernel
def code_orbit(base, i, u, alphabet, out):
    """Symbolic coding of the base orbit: symbol = min(index, alphabet - 1).

    Each step writes its symbol, then takes ``iet_step``'s step.  A
    rotation orbit stays in its block pair, so when that pair lies inside
    the truncation its loop takes the step inline, with the same float
    operations in the same order, and cannot fail.  Any other orbit loops
    over ``iet_step`` and returns its first status other than OK, at the
    same step.
    """
    fam, theta, xs, aa, ys, yl, yi, ntr = base
    top = alphabet - 1
    if fam == FAM_ROTATION and (i | 1) < ntr:
        n = i >> 1
        lo = n << 1
        hi = lo + 1
        block, cut = rotation_block(theta, n)
        shift = block - cut
        sym_lo = lo if lo < top else top
        sym_hi = hi if hi < top else top
        for step in range(out.shape[0]):
            if i == lo:
                out[step] = sym_lo
                w = u + shift
                if w < cut:
                    u = w
                else:
                    i = hi
                    u = w - cut
            else:
                out[step] = sym_hi
                if u < cut:
                    i = lo
                else:
                    u = u - cut
        return OK
    for step in range(out.shape[0]):
        out[step] = i if i < top else top
        j, v, st = iet_step(base, i, u)
        if st != OK:
            return st
        i = j
        u = v
    return OK


@kernel
def base_step_batch(base, idx, off, status):
    """One base-map step applied in place to arrays of fiber points."""
    bad = 0
    for k in range(idx.shape[0]):
        j, v, st = iet_step(base, idx[k], off[k])
        status[k] = st
        if st == OK:
            idx[k] = j
            off[k] = v
        else:
            bad += 1
    return bad
