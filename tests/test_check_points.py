"""The points and per-point values of ``lab check``'s sandwich, beta and
cocycle-algebra checks.

``reference_sandwich``, ``reference_beta`` and ``reference_cocycle`` are the
three checks as they were written before they moved onto lanes: one point
at a time through the scalar geometry formulas (``scalar_geometry``) and
flow functions, recording what each point gives.  Their SHA-256 digests on specs of all four families,
with shallow truncations so that draws are retried (and, for the cocycle
check, tries are skipped), and one odometer whose beta check raises, were
pinned from that code, and the lane checks must reproduce them: the same
points in the same order, the same values bit for bit, the same error.
"""

import hashlib
import json

import numpy as np
import pytest

from ietlab import cli
from ietlab import lane_geometry as lanes
from ietlab.errors import LabError
from ietlab.flow import cocycle, flow as flow_point, jacobian_step
from ietlab.geometry import MetricParams, TangentVec, canonicalize
from ietlab.iet import CountableIET
from ietlab.roof import RoofSpec

from scalar_geometry import (
    beta_factor,
    constant_C,
    metric_form,
    metric_norm,
    op_norm_between,
    op_norm_euclidean,
)

PARAMS = MetricParams(delta=0.25)
COUNT = 2000
SEEDS = (0, 1)
TABLE = [(0.0, 0.3), (0.2, 0.3), (0.5, -0.5), (0.8, 0.0)]
# A point beyond a shallow truncation fails to locate, and an orbit that
# leaves it fails to canonicalize, so these specs retry many draws; the
# five-interval odometer's beta check also skips points whose time-one step
# fails, and at seed 0 its beta_factor raises, which ends the check.
SPECS = {
    "rotation": lambda: CountableIET.block_rotation(n_trunc=7),
    "swap": lambda: CountableIET.block_swap(n_trunc=9),
    "odometer": lambda: CountableIET.von_neumann_kakutani(n_trunc=5),
    "table": lambda: CountableIET.explicit_table(TABLE, n_trunc=6),
}


def _random_canonical(spec, rng):
    while True:
        try:
            base = spec.iet.locate(rng.random())
            return canonicalize(spec, base, rng.uniform(-2.0, 2.0))
        except LabError:
            continue


def reference_sandwich(spec, params, seed, count):
    """The sandwich check point by point: rows (i, u, y, dx, dy, ne, nd, C)."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 101)))
    violations = 0
    rows = []
    for _ in range(count):
        z = _random_canonical(spec, rng)
        v = TangentVec(rng.normal(), rng.normal())
        ne = metric_norm(spec, params, z, v, kind="euclidean")
        nd = metric_norm(spec, params, z, v, kind="delta")
        c = constant_C(spec, z)
        if not (ne / c <= nd * (1 + 1e-9) and nd <= c * ne * (1 + 1e-9)):
            violations += 1
        rows.append([z.index, z.offset, z.height, v.dx, v.dy, ne, nd, c])
    return rows, f"violations={violations}/{count}"


def reference_beta(spec, params, seed, count):
    """The beta check point by point: rows (tried, i, u, y, lhs, rhs)."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 202)))
    violations = 0
    tried = 0
    rows = []
    while tried < count:
        z = _random_canonical(spec, rng)
        try:
            jac = jacobian_step(spec, z)
            z1 = flow_point(spec, z, 1.0)
        except LabError:
            continue
        tried += 1
        g0 = metric_form(spec, params, z)
        g1 = metric_form(spec, params, z1)
        lhs = op_norm_between(g0, jac.matrix, g1)
        rhs = (beta_factor(spec, params, z)
               * op_norm_euclidean(jac.matrix))
        if lhs > rhs * (1 + 1e-9):
            violations += 1
        rows.append([tried, z.index, z.offset, z.height, lhs, rhs])
    return rows, f"violations={violations}/{count}"


def _entries(c):
    return [c.m11, c.m12, c.m21, c.m22, c.crossings]


def reference_cocycle(spec, seed, count):
    """The cocycle-algebra check try by try: rows (i, u, y, n, m) followed
    by the entries of the whole cocycle and of the product of its two
    parts, or by "skipped" for a try whose cocycles or flow failed."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 303)))
    bad = 0
    tried = 0
    rows = []
    while tried < count:
        z = _random_canonical(spec, rng)
        n = int(rng.integers(2, 200))
        m = int(rng.integers(1, 100))
        row = [z.index, z.offset, z.height, n, m]
        try:
            whole = cocycle(spec, z, n + m)
            first = cocycle(spec, z, n)
            z_n = flow_point(spec, z, float(n))
            second = cocycle(spec, z_n, m)
        except LabError:
            rows.append(row + ["skipped"])
            continue
        tried += 1
        prod = second.compose(first)
        rows.append(row + _entries(whole) + _entries(prod))
        if (whole.m11, whole.m12, whole.m22) != (1.0, 0.0, 1.0):
            bad += 1
            continue
        tol = 1e-9 * max(1.0, abs(whole.m21))
        if abs(prod.m21 - whole.m21) > tol or prod.crossings != whole.crossings:
            bad += 1
    return rows, f"violations={bad}/{count}"


def lane_cocycle(spec, seed, count):
    """``reference_cocycle``'s rows and detail from the lane check."""
    tries = cli._cocycle_values(spec, seed, count)
    starts = zip(*(a.tolist() for a in (*tries.z, tries.n, tries.m)))
    rows = []
    for k, row in enumerate(starts):
        if tries.skipped[k]:
            rows.append([*row, "skipped"])
            continue
        whole = tries.whole.at(k)
        prod = tries.second.at(k).compose(tries.first.at(k))
        rows.append([*row, *_entries(whole), *_entries(prod)])
    return rows, cli._check_cocycle_algebra(spec, seed, count).detail


def lane_sandwich(spec, params, seed, count):
    """``reference_sandwich``'s rows and detail from the lane check."""
    z, dx, dy, ne, nd, c = cli._sandwich_values(spec, params, seed, count)
    columns = (z.idx, z.off, z.hei, dx, dy, ne, nd, c)
    rows = [list(row) for row in zip(*(a.tolist() for a in columns))]
    return rows, cli._check_sandwich(spec, params, seed, count).detail


def lane_beta(spec, params, seed, count):
    """``reference_beta``'s rows and detail from the lane check."""
    z, lhs, rhs = cli._beta_values(spec, params, seed, count)
    columns = (np.arange(1, count + 1), z.idx, z.off, z.hei, lhs, rhs)
    rows = [list(row) for row in zip(*(a.tolist() for a in columns))]
    return rows, cli._check_beta_bound(spec, params, seed, count).detail


def outcome_digest(fn, *args):
    """SHA-256 of what ``fn`` returns, or of the error it raises."""
    try:
        got = fn(*args)
    except LabError as exc:
        got = [type(exc).__name__, str(exc)]
    return hashlib.sha256(json.dumps(got).encode()).hexdigest()


#: (family, seed) -> (sandwich digest, beta digest), from the scalar checks.
PINNED = {
    ("rotation", 0): (
        "da728a803cdb16281528eb8af4aa10178b30c261f7f40ad310ecd6b79b723982",
        "d56bbf93ed35323f58f96d3299ed9a73df86d574b3067f730706232fd45b4802"),
    ("rotation", 1): (
        "28f76c07bec1667cb597143093c1bb3eabd2344e4aa886e5c1954ddaca0dae6c",
        "967286aa35740016a0cf45d0df3cb895ab99d3e10a5c844ab22b07cf779a3794"),
    ("swap", 0): (
        "ac7e070d94d4c0d43913cf0c042a984b54984cdd95a05f054228824a54899d4a",
        "6f4b6a697b70e837c82cbda24893d92747f591af5ed661d2321b79dd7d443ce8"),
    ("swap", 1): (
        "aef3d9fe799c087d78f4ca4f048d953882661e588eb19b672e861909ce228157",
        "29d52c37cd4f249d9b6ed256bd09e04dbdfb761b49416b8e7da6f26543fa751d"),
    ("odometer", 0): (
        "37b76074d55a7729534d58594ceea8380aad51e7d2d0f85c1989eee030c8e41b",
        "06d58eb6d892cf8822e01f7f88ae0750c5907e58b4ef18037f42aa96da49fc93"),
    ("odometer", 1): (
        "70ec82e6f1502fe7c87c9c4ecf5e0be5dd18d83b9f258a989dc0a008056d61a2",
        "8fde49c7d6d392dc1c9bbd0e53ddced25d0bb9203e404332110e46b3c685c0f6"),
    ("table", 0): (
        "2861e26adfbd4d21a012de460724ffef3b51bf0dbdc450139aa327a066c23dc2",
        "9e309ff2be52c1e830a1cb18ea889255a19cd0b28c73996535831be01368dfa9"),
    ("table", 1): (
        "be0f397a1f1a8f575d8604221ada6b22f51a3e98b94bcc05c855cbd0fed3cfaf",
        "7ef4aeaffea576a2739e169c753c6ed89cad943abe581809f5c6147620727b52"),
}

CASES = [(name, seed) for name in SPECS for seed in SEEDS]


@pytest.fixture(scope="module")
def specs():
    return {name: RoofSpec.build(make()) for name, make in SPECS.items()}


@pytest.mark.parametrize("name,seed", CASES)
def test_scalar_reference_matches_pinned_digests(specs, name, seed):
    spec = specs[name]
    got = (outcome_digest(reference_sandwich, spec, PARAMS, seed, COUNT),
           outcome_digest(reference_beta, spec, PARAMS, seed, COUNT))
    assert got == PINNED[name, seed]


@pytest.mark.parametrize("name,seed", CASES)
def test_lane_checks_match_pinned_digests(specs, name, seed):
    spec = specs[name]
    got = (outcome_digest(lane_sandwich, spec, PARAMS, seed, COUNT),
           outcome_digest(lane_beta, spec, PARAMS, seed, COUNT))
    assert got == PINNED[name, seed]


# The cocycle check's specs: tries on the rotation and swap are redrawn
# (points beyond the truncation, orbits that leave it while they are
# canonicalized), and most odometer tries are skipped (orbits that leave
# the truncation within n + m steps).  "odometer64" is the diagnostics
# workload's spec.
COCYCLE_SPECS = {
    "rotation": lambda: CountableIET.block_rotation(n_trunc=3),
    "swap": lambda: CountableIET.block_swap(n_trunc=5),
    "odometer": lambda: CountableIET.von_neumann_kakutani(n_trunc=6),
    "table": lambda: CountableIET.explicit_table(TABLE, n_trunc=5),
    "odometer64": lambda: CountableIET.von_neumann_kakutani(n_trunc=64),
}
COCYCLE_COUNT = 100

#: (family, seed) -> digest of the cocycle check's tries, from the scalar
#: check.
COCYCLE_PINNED = {
    ("rotation", 0):
        "573b9cd2f9c63954b47a3f8aa187c50a75fdc1f175c0de3f87fa35624126ddbf",
    ("rotation", 1):
        "f4c8043588260dfc69c2a11f2e9b0860bd3b5ccf6f506cda541b72f407fc7179",
    ("swap", 0):
        "7e837efdc90561c69cda0c2e935528df155fa99dff66bccc1b905ebcc4445b5e",
    ("swap", 1):
        "853d4cd3c4886daaef4a42ef38a5fb14fc5ad97640c92f1e2da4cec9e5a27e70",
    ("odometer", 0):
        "cdda4d432dd61269515b0adac3a047990bb12d260bd1339ba8c4e2de13fd23f9",
    ("odometer", 1):
        "3ad9fbf72c2473926e010f2155afc532f8dd321b2dd9657b8bae5e67f20e871e",
    ("table", 0):
        "13b4ece4d4efabb964bead91066f5762a2579e9cbdcbe9e8d7afaa9b47be6756",
    ("table", 1):
        "4aa5cf2f2df9987faaffb2952d88a43a5bb8ad0e9446a80aab6fb3686ddb78f4",
    ("odometer64", 0):
        "914d6f7c1f9594b5f0a2abb70539b16ed0d58b5bec11a9732ccc90df3edb33d3",
    ("odometer64", 1):
        "8e6f466ea293ff696763b50ad66d8432b06aef865531effe85d713a3c998aa7c",
}

COCYCLE_CASES = [(name, seed) for name in COCYCLE_SPECS for seed in SEEDS]


@pytest.fixture(scope="module")
def cocycle_specs():
    return {name: RoofSpec.build(make()) for name, make in COCYCLE_SPECS.items()}


@pytest.mark.parametrize("name,seed", COCYCLE_CASES)
def test_scalar_cocycle_reference_matches_pinned_digests(cocycle_specs, name,
                                                         seed):
    got = outcome_digest(reference_cocycle, cocycle_specs[name], seed,
                         COCYCLE_COUNT)
    assert got == COCYCLE_PINNED[name, seed]


@pytest.mark.parametrize("name,seed", COCYCLE_CASES)
def test_lane_cocycle_check_matches_pinned_digests(cocycle_specs, name, seed):
    got = outcome_digest(lane_cocycle, cocycle_specs[name], seed,
                         COCYCLE_COUNT)
    assert got == COCYCLE_PINNED[name, seed]


@pytest.mark.parametrize("name", ["rotation", "odometer"])
def test_lane_cocycles_match_scalar_cocycle(cocycle_specs, name):
    """Each lane's cocycle after each of its own step counts, and where the
    scalar cocycle raises, from one lane orbit run."""
    spec = cocycle_specs[name]
    rng = np.random.default_rng(5)
    starts = [_random_canonical(spec, rng) for _ in range(60)]
    z = lanes.Points(*(np.array(col) for col in zip(
        *((p.index, p.offset, p.height) for p in starts))))
    steps = [rng.integers(1, 300, 60), rng.integers(1, 40, 60)]
    raised = 0
    for (mats, fails), counts in zip(lanes.cocycles(spec, z, *steps), steps):
        for k, start in enumerate(starts):
            try:
                want = cocycle(spec, start, int(counts[k]))
            except LabError:
                assert fails[k]
                raised += 1
                continue
            assert not fails[k]
            assert mats.at(k) == want
    assert raised > 0 if name == "odometer" else raised == 0


@pytest.mark.parametrize("make", [CountableIET.block_rotation,
                                  CountableIET.von_neumann_kakutani],
                         ids=["rotation", "odometer"])
def test_sandwich_and_beta_gates_can_fail(make):
    """Near the edges, the checks' own points separate the norms.

    The blended norm stretches some vectors and shrinks others there, so
    the sandwich gate with C = 1 would fail; and the time-one differential
    expands the blended norm more than the euclidean one, so the beta gate
    with beta = 1 would fail.
    """
    spec = RoofSpec.build(make())
    z, dx, dy, ne, nd, c = cli._sandwich_values(spec, PARAMS, 0, 10000)
    ratio = nd / ne
    assert np.count_nonzero(ratio > 1.0 + 1e-9) >= 100
    assert np.count_nonzero(ratio < 1.0 - 1e-9) >= 10
    assert cli._check_sandwich(spec, PARAMS, 0).status == "PASS"

    rng = np.random.default_rng(np.random.SeedSequence((0, 202)))
    z, jac, z1 = lanes.beta_draws(spec, rng, 10000)
    lhs = lanes.op_norm_between(lanes.metric_form(spec, PARAMS, z), jac,
                                lanes.metric_form(spec, PARAMS, z1))
    euclidean = lanes.op_norm_euclidean(jac)
    assert np.count_nonzero(lhs > euclidean * (1 + 1e-9)) >= 100
    assert cli._check_beta_bound(spec, PARAMS, 0).status == "PASS"
