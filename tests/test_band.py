"""One exclusion band on every path that refuses the roof.

The roof is refused at offsets closer than ``band * l`` to either end of an
interval of length ``l``.  The scalar kernels test it with ``kernels.in_band``,
the lanes and the sampler with ``lanes._in_band``, and ``RoofSpec`` through
the kernel.  At the band's edges the float limits matter: ``l * (1 - band)``
can exceed ``l - band * l`` by one ulp, so the test is pinned at both
expressions and one ulp either side of each, where all paths must agree.
"""

import numpy as np
import pytest

from ietlab import kernels, lanes
from ietlab.iet import CountableIET, FiberPoint
from ietlab.roof import ProportionalPolicy, RoofSpec

TABLE = [(0.0, 0.3), (0.2, 0.3), (0.5, -0.5), (0.8, 0.0)]


def edge_offsets(l, band):
    """Per interval: band*l, l - band*l and l*(1 - band), one ulp below,
    at and one ulp above each; shape (intervals, 9)."""
    cols = []
    for edge in (band * l, l - band * l, l * (1.0 - band)):
        cols += [np.nextafter(edge, -np.inf), edge, np.nextafter(edge, np.inf)]
    return np.column_stack(cols)


def random_spec(count, seed):
    """A spec over an identity table of ``count`` random lengths spread
    over 60 octaves, shortest first so that every endpoint keeps the
    lengths before it, scaled by a power of two to end below 1/2."""
    rng = np.random.default_rng(seed)
    lengths = np.sort(rng.uniform(0.5, 1.0, count) * np.ldexp(
        1.0, -rng.integers(1, 60, count)))
    lengths = np.ldexp(lengths, -int(np.ceil(np.log2(lengths.sum()))) - 1)
    xs = np.concatenate(([0.0], np.cumsum(lengths)))
    iet = CountableIET.explicit_table([(x, 0.0) for x in xs.tolist()],
                                      n_trunc=count + 2)
    return RoofSpec.build(iet, ProportionalPolicy(0.25))


SPECS = {
    "rotation": lambda: RoofSpec.build(CountableIET.block_rotation()),
    "swap": lambda: RoofSpec.build(CountableIET.block_swap()),
    "odometer": lambda: RoofSpec.build(CountableIET.von_neumann_kakutani()),
    "table": lambda: RoofSpec.build(
        CountableIET.explicit_table(TABLE, n_trunc=16)),
    "random": lambda: random_spec(10_000, 20),
}


@pytest.mark.parametrize("name", sorted(SPECS))
def test_band_predicates_agree_at_the_band_edges(name):
    spec = SPECS[name]()
    base, roof = spec.iet.pack(), spec.pack()
    band, lengths = spec.band, spec.lengths
    offsets = edge_offsets(lengths, band)
    if name == "random":
        # the sample holds lengths on which the two upper limits differ
        assert np.any(offsets[:, 7] != offsets[:, 4])
    n = lengths.shape[0]
    idx = np.repeat(np.arange(n), offsets.shape[1])
    lane = lanes._in_band(offsets.ravel(), lengths[idx], band)
    got = []
    for k, (i, u) in enumerate(zip(idx.tolist(), offsets.ravel().tolist())):
        l = float(lengths[i])
        scalar = kernels.in_band(u, l, band)
        # far below the roof, time_one stops at the band test or climbs
        status = kernels.time_one(base, roof, i, u, -5.0)[5]
        assert status in (kernels.OK, kernels.SINGULARITY)
        views = (scalar, bool(lane[k]), bool(spec.in_band(FiberPoint(i, u))),
                 status == kernels.SINGULARITY)
        assert views == (scalar,) * 4, (i, u, l)
        got.append(scalar)
    got = np.array(got).reshape(n, -1)
    # the band is open: its limits band*l and l - band*l lie outside it
    edges = [0, 1, 2, 3, 4, 5, 6, 8]
    assert got[:, edges].tolist() == [[True, False, False, False, False,
                                       True, False, True]] * n
    # l*(1 - band) is in the band exactly where it exceeds l - band*l
    assert np.array_equal(got[:, 7], offsets[:, 7] > offsets[:, 4])
