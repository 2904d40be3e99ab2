"""Kernel-level tests: status codes, scalar kernels against python oracles,
and exact agreement of both backends with pinned golden digests.

The parity tests run one digest script in a subprocess, with ``LAB_NUMBA=0``
(pure python) and, when numba is importable, with ``LAB_NUMBA=1`` (JIT).
Every output is hashed byte-for-byte and compared with the committed
``GOLDEN`` digests, so each backend must reproduce them to the last bit.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from ietlab import kernels
from ietlab.iet import CountableIET

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
    band = golden_spec.pack()[3]
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


def test_code_orbit_reports_truncation():
    iet = CountableIET.von_neumann_kakutani(n_trunc=4)
    out = np.empty(64, dtype=np.int64)
    p = iet.locate(0.0)
    status = kernels.code_orbit(iet.pack(), p.index, p.offset, 16, out)
    assert status == kernels.TRUNCATION


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

# The script drives the kernels through the public API only, so it does not
# depend on kernel signatures.  Each entry is a SHA-256 over exact bytes
# (arrays) or over JSON with shortest round-trip floats, so any change in
# the last bit of any output changes the digest.
DIGEST_SCRIPT = r"""
import hashlib
import json

import numpy as np

from ietlab import kernels
from ietlab.errors import LabError
from ietlab.flow import aaronson_average, cocycle, cocycle_checkpoints
from ietlab.geometry import canonicalize
from ietlab.iet import CountableIET, FiberPoint
from ietlab.measure import coded_orbit_stream, invariance_check, sample_mu
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
        return [[c.m11, c.m12, c.m21, c.m22, c.crossings] for c in mats] \
            + [[q.index, q.offset, q.height] for q in pts]
    rows.append(outcome(run))
out["cocycle"] = digest(rows)

rng = np.random.default_rng(11)
sums = []
for _ in range(10):
    x = iet.locate(float(rng.random()))
    sums.append(outcome(lambda: aaronson_average(spec, x, 5000)))
    sums.append(outcome(lambda: aaronson_average(spec, x, 5000, h_const=3.0)))
out["aaronson"] = digest(sums)

for name, s, count in (("invariance", spec, 20000),
                       ("invariance_shallow", shallow_spec, 5000)):
    rep = invariance_check(s, count=count, seed=5)
    out[name] = digest([rep.used, rep.discards]
                       + [[r.freq_pre, r.freq_post] for r in rep.rows])

for name, s in (("samples", spec), ("samples_shallow", shallow_spec)):
    batch = sample_mu(s, 20000, seed=5)
    out[name] = array_digest(batch.idx, batch.off, batch.hei) \
        + f":{batch.step_discards}"

out["coded"] = digest([
    array_digest(coded_orbit_stream(base, 20000, seed=2).symbols)
    for base in (iet, families["odometer"])])

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
        "32031a523375e90c830f6fe8d491502279aa81f34bf3d39a75a29f5d436351ff",
    "aaronson":
        "043a788e2e6052801b62940a6855c15e482edf81c4573e413c67b88f2327a834",
    "invariance":
        "21224bdf87e6090e0ebe6650e29d7c8bc461b5823ce3fceebad85ebea27b0e57",
    "invariance_shallow":
        "61b45363cb9f1af7d10a416cea9a778e3fbbe679e069d8deb3ca92bf0e94bf5d",
    "samples":
        "fba9a091db3906a1ace82790f7f901f1d7245aad90677735744258de44fdcac6:0",
    "samples_shallow":
        "e3ea4274052b32cad703b00a8f476f4f764c4b7e02fe12eaf3ccad5eb9558d72:433",
    "coded":
        "83b1411dddea375f1600f71e17bd0708a2d78760b1ec414744948807c9d142c9",
    "canonicalize":
        "bc904d5a51734bc9513a2f3131a4dadb1c064a819a2a7e5a97e990744ef1a952",
    "truncation":
        "a9dd10660177531b977c8567a58b369024e9e8026d49fa99fcb49e58dc8e62ce",
}


def _run_digest_subprocess(lab_numba: str) -> dict:
    env = dict(os.environ, LAB_NUMBA=lab_numba)
    proc = subprocess.run([sys.executable, "-c", DIGEST_SCRIPT],
                          capture_output=True, text=True, env=env,
                          timeout=300, check=True)
    return json.loads(proc.stdout)


def _assert_golden(got: dict) -> None:
    assert set(GOLDEN) <= set(got)
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
