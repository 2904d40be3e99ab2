"""libm's functions on float arrays, with the bits of ``math``.

Every ``log``, ``exp``, ``log1p`` and ``hypot`` of an array in ietlab goes
through ``elementwise``, so that each element gets the bits that ``math``
gives it, whatever loop numpy dispatches to.  numpy's AVX-512 float64
``log`` and ``exp`` round differently from libm on some inputs, while its
baseline and X86_V3 loops call libm for each element.  Importing
``ietlab`` before numpy turns the AVX-512 targets off (see ``ietlab``'s
``__init__``); ``LIBM_UFUNCS`` then holds ``np.log`` and ``np.exp``, which
cost a few ns per element against about 100 ns per ``math`` call.  Where
numpy was imported first, is older than 2.0 (it does not report its
loops), or reports another loop, ``elementwise`` calls ``math`` element by
element, as it always does for ``log1p`` and ``hypot`` (``math.hypot`` is
not libm's, and ``np.hypot`` differs from it on every loop).
"""

from __future__ import annotations

import math

import numpy as np


def _libm_ufuncs():
    """``{math.log: np.log, math.exp: np.exp}``, each where numpy reports
    that its float64 loop is one that calls libm."""
    try:
        from numpy.lib.introspect import opt_func_info
    except ImportError:
        return {}
    loops = opt_func_info(func_name="^(exp|log)$")
    found = {}
    for fn, ufunc in ((math.exp, np.exp), (math.log, np.log)):
        target = loops.get(ufunc.__name__, {}).get("dd", {}).get("current", "")
        if target == "X86_V3" or target.startswith("baseline("):
            found[fn] = ufunc
    return found


#: The ``math`` functions whose numpy ufunc gives libm's bits here.
LIBM_UFUNCS = _libm_ufuncs()


def elementwise(fn, *xs):
    """``fn`` from ``math`` applied elementwise to the 1-d float arrays
    ``xs``: by its ufunc in ``LIBM_UFUNCS``, else one call per element."""
    ufunc = LIBM_UFUNCS.get(fn)
    if ufunc is not None:
        return ufunc(*xs)
    return np.fromiter(map(fn, *(x.tolist() for x in xs)), np.float64,
                       xs[0].shape[0])
