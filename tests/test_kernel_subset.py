"""The ``@kernel`` functions stay inside the subset of Python that numba
compiles in nopython mode.

Without numba the kernels run as plain Python, so nothing else here would
notice a construct the JIT rejects.  This test reads ``kernels.py`` with
``ast`` and, inside each ``@kernel`` function, rejects:

- calls to anything but ``math`` functions, a few builtins and numpy
  functions that numba supports, and other kernels;
- ``try``, ``with``, generators, comprehensions, lambdas, f-strings and
  nested functions or classes;
- keyword arguments in calls between kernels;
- globals other than module-level constants, ``math``, numpy and kernels.

It cannot prove that a kernel types, only catch the common slips.  The
allowed names follow numba's lists of supported Python and numpy features.
"""

import ast
import math
from pathlib import Path

import pytest

import ietlab.kernels

KERNELS = Path(ietlab.kernels.__file__)

BUILTINS = {"abs", "bool", "float", "int", "len", "max", "min", "range"}
NUMPY = {"abs", "arange", "empty", "empty_like", "floor", "isfinite",
         "isnan", "ones", "sqrt", "zeros", "zeros_like"}
NUMPY_MODULES = {"np", "numpy"}
FORBIDDEN = {
    ast.Try: "try", ast.With: "with", ast.Yield: "generator",
    ast.YieldFrom: "generator", ast.GeneratorExp: "generator",
    ast.ListComp: "comprehension", ast.SetComp: "comprehension",
    ast.DictComp: "comprehension", ast.Lambda: "lambda",
    ast.JoinedStr: "f-string", ast.FunctionDef: "nested function",
    ast.ClassDef: "class", ast.Global: "global statement",
    ast.Nonlocal: "nonlocal statement",
}


def _is_kernel(node) -> bool:
    return isinstance(node, ast.FunctionDef) and any(
        isinstance(d, ast.Name) and d.id == "kernel"
        for d in node.decorator_list)


def _constants(tree) -> set[str]:
    """Module-level names bound once to a literal number, string or bool."""
    out = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Constant)):
            out.add(node.targets[0].id)
    return out


def _locals(func) -> set[str]:
    args = func.args
    names = {a.arg for a in (*args.posonlyargs, *args.args,
                             *args.kwonlyargs)}
    for node in ast.walk(func):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
    return names


def _call_ok(func, kernels: set[str]) -> bool:
    if isinstance(func, ast.Name):
        return func.id in kernels or func.id in BUILTINS
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        module, name = func.value.id, func.attr
        if module == "math":
            return callable(getattr(math, name, None))
        return module in NUMPY_MODULES and name in NUMPY
    return False


def violations(source: str) -> list[str]:
    """What breaks the subset in the ``@kernel`` functions of ``source``."""
    tree = ast.parse(source)
    kernels = {n.name for n in tree.body if _is_kernel(n)}
    allowed = (_constants(tree) | kernels | BUILTINS | NUMPY_MODULES
               | {"math"})
    found = []
    for func in (n for n in tree.body if _is_kernel(n)):
        local = _locals(func)
        where = f"{func.name}:"
        for node in (n for stmt in func.body for n in ast.walk(stmt)):
            if type(node) in FORBIDDEN:
                found.append(f"{where}{node.lineno} {FORBIDDEN[type(node)]}")
            elif isinstance(node, ast.Call):
                if not _call_ok(node.func, kernels):
                    found.append(f"{where}{node.lineno} call "
                                 f"{ast.unparse(node.func)}")
                elif (isinstance(node.func, ast.Name)
                      and node.func.id in kernels and node.keywords):
                    found.append(f"{where}{node.lineno} keyword arguments "
                                 f"to {node.func.id}")
            elif (isinstance(node, ast.Name)
                  and isinstance(node.ctx, ast.Load)
                  and node.id not in local and node.id not in allowed):
                found.append(f"{where}{node.lineno} global {node.id}")
    return found


def test_kernels_stay_in_the_numba_subset():
    source = KERNELS.read_text(encoding="utf-8")
    assert len([n for n in ast.parse(source).body if _is_kernel(n)]) >= 20
    assert violations(source) == []


HEADER = """
import math
OK = 0
TABLE = [1, 2]
state = {}

@kernel
def helper(x, y):
    return x + y
"""


#: construct -> (body of a kernel ``bad(x)``, what the check must report)
CONSTRUCTS = {
    "builtin-call": ("return sum(x for x in range(3))", "call sum"),
    "comprehension": ("return [x for x in range(3)][0]", "comprehension"),
    "try": ("try:\n        return 1\n    except ValueError:\n"
            "        return 0", "try"),
    "with": ("with open('f') as fh:\n        return 0", "with"),
    "generator": ("yield 1", "generator"),
    "f-string": ("return f'{x}'", "f-string"),
    "keyword": ("return helper(x, y=1)", "keyword arguments to helper"),
    "global-list": ("return TABLE[0]", "global TABLE"),
    "global-dict": ("return state", "global state"),
    "sorted": ("return sorted([x])", "call sorted"),
    "method": ("return x.copy()", "call x.copy"),
    "lambda": ("return (lambda v: v)(x)", "lambda"),
}


@pytest.mark.parametrize("construct", CONSTRUCTS)
def test_subset_check_rejects_each_construct(construct):
    body, want = CONSTRUCTS[construct]
    source = HEADER + f"\n@kernel\ndef bad(x):\n    {body}\n"
    found = violations(source)
    assert any(want in v for v in found), found
    assert all(v.startswith("bad:") for v in found)


def test_subset_check_accepts_the_allowed_constructs():
    source = HEADER + (
        "\n@kernel\ndef good(x, out):\n"
        "    for k in range(len(out)):\n"
        "        out[k] = helper(math.exp(x), abs(x)) + OK\n"
        "    a, b = math.frexp(x)\n"
        "    return int(b), max(a, 0.0)\n")
    assert violations(source) == []
