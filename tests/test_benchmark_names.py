"""The names of the package that the benchmark reads.

``perfbench/tracer.py`` wraps the functions in its ``TARGETS`` table and its
``HOOKS`` read arguments of the wrapped calls by name and fields of their
results; ``perfbench/run.py``'s set-up probe calls package functions by
name.  A renamed function, parameter or field would end every benchmark run
with nothing measured, so these tests read the names from the benchmark's
own source and look each one up in the package.
"""

import ast
import dataclasses
import importlib
import inspect
import sys
import typing
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import tracer  # noqa: E402


def package_function(name: str):
    """The function at ``module.attr`` or ``module.Class.attr`` of ietlab,
    unwrapped from the JIT when it is a kernel."""
    module, _, attr = name.partition(".")
    owner = importlib.import_module(f"ietlab.{module}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    return getattr(owner, "py_func", owner)


def hook_reads(hook) -> tuple[set, set]:
    """The argument names a hook subscripts its second parameter with, and
    the attributes it reads on its third (the wrapped call's result)."""
    tree = ast.parse(inspect.getsource(hook))
    func = tree.body[0]
    args_name, result_name = (a.arg for a in func.args.args[1:3])
    args, fields = set(), set()
    for node in ast.walk(func):
        if (isinstance(node, ast.Subscript)
                and isinstance(node.value, ast.Name)
                and node.value.id == args_name):
            args.add(node.slice.value)
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == result_name):
            fields.add(node.attr)
    return args, fields


def test_every_tracer_target_resolves():
    names = [f"{mod}.{func}" for mod, funcs in tracer.TARGETS.items()
             for func in funcs]
    assert "measure.sample_mu" in names
    for name in names:
        assert callable(package_function(name)), name


@pytest.mark.parametrize("name", sorted(tracer.HOOKS))
def test_tracer_hooks_read_names_the_wrapped_function_has(name):
    fn = package_function(name)
    args, fields = hook_reads(tracer.HOOKS[name])
    params = inspect.signature(fn).parameters
    assert args <= set(params), (name, args - set(params))
    if fields:
        result = typing.get_type_hints(fn)["return"]
        known = {f.name for f in dataclasses.fields(result)} | set(dir(result))
        assert fields <= known, (name, fields - known)


def test_tracer_hooks_read_the_expected_names():
    # the readers above find what the hooks read, so they cannot pass
    # vacuously
    args, fields = set(), set()
    for hook in tracer.HOOKS.values():
        a, f = hook_reads(hook)
        args |= a
        fields |= f
    assert args == {"cps", "out_fail", "idx", "count", "stream", "path",
                    "out"}
    assert {"proposals", "accepted", "band_rejects", "step_discards",
            "count", "used", "samples", "discarded_trajectories",
            "rows"} <= fields


def test_setup_probe_names_resolve():
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text())
    code, = (node.value.value for node in tree.body
             if isinstance(node, ast.Assign)
             and [t.id for t in node.targets] == ["SETUP_CODE"])
    probe = ast.parse(code)
    modules = {alias.asname or alias.name for node in ast.walk(probe)
               if isinstance(node, ast.ImportFrom) and node.module == "ietlab"
               for alias in node.names}
    used = {f"{node.value.id}.{node.attr}" for node in ast.walk(probe)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules}
    assert used == {"cli.build_spec", "cli.load_config",
                    "kernels.NUMBA_ENABLED"}
    for name in used:
        module, _, attr = name.partition(".")
        assert hasattr(importlib.import_module(f"ietlab.{module}"), attr)
