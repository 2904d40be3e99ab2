"""Two paths to libm's log and exp, each in a fresh interpreter.

Importing ``ietlab`` before numpy turns numpy's AVX-512 targets off, so
that numpy's float64 ``log`` and ``exp`` loops call libm and
``libm.elementwise`` takes them (``libm.LIBM_UFUNCS``); a process that
imports numpy first keeps the default dispatch and, where that is AVX-512,
one ``math`` call per element.  Both must give the same bits.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ietlab import libm

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# Inputs where numpy's AVX-512 float64 loops round differently from libm
# (found on an AVX-512 machine with numpy 2.4): ratios u/b in (0, 1), as
# the roof's spikes and blends take logs of, and -1/t <= -1, as its smooth
# step takes exps of.
LOG_PINS = ["0x1.3c56175d4f3c4p-3", "0x1.fda00b1de131ap-1",
            "0x1.ddd1ef95b1f48p-2", "0x1.c97bab0796227p-1"]
EXP_PINS = ["-0x1.ccb5e2d07c055p+0", "-0x1.234e8d80edb3ap+1",
            "-0x1.b3a031a2bac34p+0", "-0x1.0e07835c66681p+4"]

# Prints what a fresh process sees after its imports: the loop numpy runs
# for float64 log and exp, the functions ``elementwise`` sends to numpy,
# and the two variables numpy reads.
REPORT = """\
import json, math, os
{imports}
from ietlab import libm
try:
    from numpy.lib.introspect import opt_func_info
    loops = opt_func_info(func_name="^(exp|log)$")
    targets = {{f: loops[f]["dd"]["current"] for f in ("exp", "log")}}
except ImportError:
    targets = None
print(json.dumps({{
    "targets": targets,
    "fast": sorted(f.__name__ for f in libm.LIBM_UFUNCS),
    "env": {{k: os.environ.get(k) for k in
            ("NPY_DISABLE_CPU_FEATURES", "NPY_ENABLE_CPU_FEATURES")}},
}}))
"""


def child_env(**extra):
    env = {k: v for k, v in os.environ.items()
           if k not in ("NPY_DISABLE_CPU_FEATURES", "NPY_ENABLE_CPU_FEATURES")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.update(extra)
    return env


def report(numpy_first=False, **extra):
    imports = "import numpy\nimport ietlab" if numpy_first else "import ietlab"
    out = subprocess.run(
        [sys.executable, "-W", "error::ImportWarning", "-c",
         REPORT.format(imports=imports)],
        env=child_env(**extra), capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def libm_targets(seen):
    """The functions whose reported loop calls libm, by name."""
    if seen["targets"] is None:
        return []
    return sorted(f for f, t in seen["targets"].items()
                  if t == "X86_V3" or t.startswith("baseline("))


def test_ietlab_first_takes_numpy_loops_where_they_call_libm():
    first = report()
    assert first["fast"] == libm_targets(first)
    # the variable is set for numpy's import only, not handed to children
    assert first["env"] == {"NPY_DISABLE_CPU_FEATURES": None,
                            "NPY_ENABLE_CPU_FEATURES": None}
    default = report(numpy_first=True)
    assert default["fast"] == libm_targets(default)
    if default["targets"] is not None and "X86_V4" in default["targets"].values():
        # AVX-512 by default: importing ietlab first moves both to libm
        assert first["fast"] == ["exp", "log"]
        assert default["fast"] == []


def test_user_cpu_feature_settings_are_kept():
    # an empty value is one numpy accepts everywhere, and asks for nothing
    seen = report(NPY_DISABLE_CPU_FEATURES="")
    assert seen["env"]["NPY_DISABLE_CPU_FEATURES"] == ""
    assert seen["fast"] == libm_targets(seen)
    assert seen == report(numpy_first=True, NPY_DISABLE_CPU_FEATURES="")
    try:
        from numpy._core._multiarray_umath import __cpu_baseline__
    except ImportError:  # numpy < 2.0
        from numpy.core._multiarray_umath import __cpu_baseline__
    if not __cpu_baseline__:
        pytest.skip("numpy has no baseline target to enable")
    # enabling the baseline alone turns every dispatched target off
    enable = __cpu_baseline__[0]
    seen = report(NPY_ENABLE_CPU_FEATURES=enable)
    assert seen["env"] == {"NPY_DISABLE_CPU_FEATURES": None,
                           "NPY_ENABLE_CPU_FEATURES": enable}
    assert seen["fast"] == libm_targets(seen)


def test_elementwise_gives_libm_bits():
    rng = np.random.default_rng(20261020)
    logs = np.concatenate([[float.fromhex(h) for h in LOG_PINS],
                           rng.random(100_000),
                           np.exp(rng.uniform(-700.0, 700.0, 100_000))])
    exps = np.concatenate([[float.fromhex(h) for h in EXP_PINS],
                           -1.0 / rng.random(100_000),
                           rng.uniform(-745.0, 709.0, 100_000)])
    for fn, xs in ((math.log, logs), (math.exp, exps)):
        want = [fn(x) for x in xs.tolist()]
        assert libm.elementwise(fn, xs).tolist() == want
        ufunc = libm.LIBM_UFUNCS.get(fn)
        if ufunc is not None:
            assert ufunc(xs).tolist() == want


LAB = "import sys; from ietlab.cli import main; sys.exit(main())"
# numpy first, with its default loops, and every elementwise call on math
LAB_MATH = ("import sys, numpy; from ietlab import libm; "
            "libm.LIBM_UFUNCS.clear(); from ietlab.cli import main; "
            "sys.exit(main())")


def lab_outputs(code, kind, out):
    subprocess.run([sys.executable, "-c", code, kind, "--config",
                    str(ROOT / "configs" / "quick.json"), "--out", str(out)],
                   env=child_env(), check=True, capture_output=True)
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    report = json.loads(files.pop("report.json"))
    report.pop("wall_clock_seconds")
    return files, report


@pytest.mark.parametrize("kind", ["lyapunov", "measure", "check", "entropy"])
def test_lab_writes_the_same_bytes_on_both_paths(tmp_path, kind):
    fast = lab_outputs(LAB, kind, tmp_path / "fast")
    slow = lab_outputs(LAB_MATH, kind, tmp_path / "math")
    assert fast[0] and fast == slow
