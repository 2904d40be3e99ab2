"""Pinned bits of the quadrature and of the float sums behind the
summability certificate.

Every sum of floats here is taken in an explicit order, so that its bits
do not depend on the interpreter (from Python 3.12, the builtin ``sum``
compensates its rounding).  The values below, written with ``float.hex``,
were taken from the scalar quadrature, which evaluated one node at a time,
and from the partial sums as builtin ``sum`` took them on Python 3.11.
"""

import hashlib
import json

import pytest

from ietlab.errors import LabError
from ietlab.iet import CountableIET, partition_entropy
from ietlab.roof import (
    ProportionalPolicy,
    RoofSpec,
    _blend_integrals,
    log_derivative_integral,
    roof_integral,
)

TABLE = [(0.0, 0.3), (0.2, 0.3), (0.5, -0.5), (0.8, 0.0)]
IETS = {
    "rotation": lambda: CountableIET.block_rotation(),
    "swap": lambda: CountableIET.block_swap(),
    "odometer": lambda: CountableIET.von_neumann_kakutani(),
    "table": lambda: CountableIET.explicit_table(TABLE, n_trunc=64),
}
POLICIES = {"default": None, "proportional": ProportionalPolicy()}

#: family -> (partition entropy partial sum, the proportional policy's
#: tail bound from interval 10, and from interval 64).
SUMS = {
    "rotation": ("0x1.06916a7a361ecp+1", "0x1.b9d05f34d9184p-5",
                 "0x1.99e4a0fefa39fp-30"),
    "swap": ("0x1.0a2b23e7996acp+1", "0x1.bb9d3beb8c894p-5",
             "0x1.9a57d6fefa39fp-30"),
    "odometer": ("0x1.62e42fefa39efp+0", "0x1.3687a9f1af2bep-9", "0x0.0p+0"),
    "table": ("0x1.0b555c93ae6ebp+0", "0x1.1be9bff2e9506p-11", "0x0.0p+0"),
}

#: (family, policy) -> roof integral by Simpson and by Gauss, the
#: log-derivative integral by Simpson and by Gauss, and the roof integral
#: over the first 20 intervals with tolerance 1e-6.  The rotation with the
#: default policy is the golden spec and the measure and orbit workloads'
#: spec; the odometer with the default policy is the diagnostics workload's.
QUADRATURE = {
    ("rotation", "default"): (
        "0x1.516366b4dfb46p+0", "0x1.516366b4ce67ap+0", "0x1.5bf36b4b4cd55p+0",
        "0x1.5bf36b4b46257p+0", "0x1.5123e27221c51p+0"),
    ("rotation", "proportional"): (
        "0x1.7b0a6b4100ab9p+0", "0x1.7b0a6b40d233ep+0", "0x1.0a614b8177b87p+1",
        "0x1.0a614b8171122p+1", "0x1.7aacd7424df3dp+0"),
    ("swap", "default"): (
        "0x1.5c47d070cb4c6p+0", "0x1.5c47d070b9eecp+0", "0x1.7db03ec7004cdp+0",
        "0x1.7db03ec6f9953p+0", "0x1.5c084d30dc04fp+0"),
    ("swap", "proportional"): (
        "0x1.7b0a6b40f4c4bp+0", "0x1.7b0a6b40d2340p+0", "0x1.0bf65f0bc8873p+1",
        "0x1.0bf65f0bbcd38p+1", "0x1.7aac9f4843cb4p+0"),
    ("odometer", "default"): (
        "0x1.7b0a6b425e985p+0", "0x1.7b0a6b424d3e7p+0", "0x1.c8907c1c346ecp+0",
        "0x1.c8907c1c2db5ep+0", "0x1.7b0ad88df654ap+0"),
    ("table", "default"): (
        "0x1.5620e4ae7ab52p+0", "0x1.5620e4ae69454p+0", "0x1.6c0c1af776d21p+0",
        "0x1.6c0c1af7701cbp+0", "0x1.56214741c47d2p+0"),
    ("table", "proportional"): (
        "0x1.7b0a6b426716cp+0", "0x1.7b0a6b424d3e6p+0", "0x1.e545d3b5a3873p+0",
        "0x1.e545d3b59a134p+0", "0x1.7b0ab3dcca3b4p+0"),
}


@pytest.mark.parametrize("name", SUMS)
def test_partition_entropy_and_tail_bound_bits(name):
    iet = IETS[name]()
    policy = ProportionalPolicy()
    got = (partition_entropy(iet).partial_sum.hex(),
           policy.tail_blog_bound(iet, 10)[0].hex(),
           policy.tail_blog_bound(iet, 64)[0].hex())
    assert got == SUMS[name]


@pytest.mark.parametrize("name,policy", QUADRATURE)
def test_quadrature_bits(name, policy):
    spec = RoofSpec.build(IETS[name](), POLICIES[policy])
    got = (roof_integral(spec, scheme="simpson").value.hex(),
           roof_integral(spec, scheme="gauss").value.hex(),
           log_derivative_integral(spec)[0].hex(),
           log_derivative_integral(spec, scheme="gauss")[0].hex(),
           roof_integral(spec, n_terms=20, quad_tol=1e-6).value.hex())
    assert got == QUADRATURE[name, policy]


#: (family, integrand is log(1 + |r'|), scheme) -> SHA-256 of the list, by
#: interval, of [left blend, right blend] integrals as ``float.hex``, with
#: the default policy.  A piece's last bits are lost in the totals above,
#: so the order of each piece's own sum shows only here.
PIECES = {
    ("rotation", False, "simpson"):
        "3c0363097d649f0de804640e705d5332a872220bbca2d2a15d9309f342794276",
    ("rotation", False, "gauss"):
        "178374549367dceaaa49276917a0c82b0c5c94ff121baa016e2b5eebe40756a6",
    ("rotation", True, "simpson"):
        "dc1f1ee6c33093c993ee36862abf4e8c284cbb8c8a344cca6b0c6edb064ae133",
    ("rotation", True, "gauss"):
        "0aff32a1c18a286a153fc6b6fcd265774b72c30869d657939f462efcd1720faf",
    ("odometer", False, "simpson"):
        "427547463da6d57acb1b98f0711251429ef43c1f30cd1d0a9352df96fdd11dc1",
    ("odometer", False, "gauss"):
        "0e9eb68a3294addfea45d5809bb767837d35366f37df02d14985768ae058a6b4",
    ("odometer", True, "simpson"):
        "a0762526202fa29e82b18f0345c15cda899c346e907617a390bff78d3d1379fb",
    ("odometer", True, "gauss"):
        "e649fc865e2e6d5f494072510fa1084a383a21f5235016304d081da464c7659f",
    ("table", False, "simpson"):
        "4fe3a81854ee13a7003fee6fffbb277b8bd0b3841359ba8f024a430019bec17a",
    ("table", False, "gauss"):
        "78a50a09bb209ff41e602f994abc2122709feec613b97a7d6667ef7b9ca09354",
    ("table", True, "simpson"):
        "ef92ad8edb510c4f0ee2860dd1e1f3afe173a8c571475ac013f66e05dd373506",
    ("table", True, "gauss"):
        "aca3ab2eb4b7591e0215b3553126b2c3dce6b97f4c9c1ef6c1ca79d22bdaa1da",
}


@pytest.mark.parametrize("name,derivative,scheme", PIECES)
def test_blend_piece_bits(name, derivative, scheme):
    spec = RoofSpec.build(IETS[name]())
    pieces = _blend_integrals(spec, spec.iet.n_trunc, derivative, scheme,
                              1e-12)
    got = [[v.hex() for v in row] for row in pieces.tolist()]
    digest = hashlib.sha256(json.dumps(got).encode()).hexdigest()
    assert digest == PIECES[name, derivative, scheme]


def test_stalled_quadrature_names_the_first_stalled_interval():
    """Below the rounding of the integrand, Simpson cannot meet its
    tolerance; the error names the interval the scalar quadrature, which
    went depth first and right child first, reached first."""
    spec = RoofSpec.build(CountableIET.von_neumann_kakutani())
    with pytest.raises(LabError) as exc:
        roof_integral(spec, quad_tol=1e-20)
    assert str(exc.value) == (
        "adaptive quadrature stalled on [0.08324144122163069, "
        "0.08324144122163091] (err -4.93038e-32)")
    with pytest.raises(LabError) as exc:
        log_derivative_integral(spec, quad_tol=1e-20)
    assert str(exc.value) == (
        "adaptive quadrature stalled on [0.11907867217380952, "
        "0.11907867217380974] (err -5.77779e-34)")
