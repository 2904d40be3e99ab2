"""Random canonical points for the tests.

Kept out of ``conftest.py``: the benchmark's tests import their own
``conftest`` by name in the same pytest run.
"""

from ietlab.errors import LabError
from ietlab.geometry import canonicalize


def draw_canonical(spec, rng):
    """Random canonical point: uniform base point, height folded in."""
    while True:
        try:
            base = spec.iet.locate(rng.random())
            return canonicalize(spec, base, rng.uniform(-3.0, 3.0))
        except LabError:
            continue
