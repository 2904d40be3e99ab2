"""The points and per-point values of ``lab check``'s sandwich and beta checks.

``reference_sandwich`` and ``reference_beta`` are the two checks as they
were written before they moved onto lanes: one point at a time through the
scalar geometry functions, recording what each point gives.  Their
SHA-256 digests on eight specs (all four families, shallow truncations so
that draws are retried, and one odometer whose beta check raises) were
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
from ietlab.flow import flow as flow_point, jacobian_step
from ietlab.geometry import (
    MetricParams,
    TangentVec,
    beta_factor,
    canonicalize,
    constant_C,
    metric_form,
    metric_norm,
    op_norm_between,
    op_norm_euclidean,
)
from ietlab.iet import CountableIET
from ietlab.roof import RoofSpec

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
