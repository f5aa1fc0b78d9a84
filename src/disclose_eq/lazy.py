"""numpy, imported by the first array read of a module that defers it.

A cold `solve` or `limit` runs on Python floats: its bisections build no
array, and importing numpy would be most of such a process.  So the
modules on that path (priors, posterior, endogenous, cli) bind np to
LazyNumpy(globals()).  Its first attribute read imports numpy and puts
numpy itself in that module's globals under np, so from then on the
module's array code reads numpy directly and pays nothing per call.
Their reads that take floats and arrays alike branch on is_array, which
tells a Python float or int from an array without reading np.
"""
from __future__ import annotations

from typing import Any


class LazyNumpy:
    """A module's np until its first attribute read (the module docstring)."""

    __slots__ = ("_namespace",)

    def __init__(self, namespace: dict[str, Any]) -> None:
        self._namespace = namespace

    def __getattr__(self, name: str) -> Any:
        import numpy

        self._namespace["np"] = numpy
        return getattr(numpy, name)


np = LazyNumpy(globals())


def is_array(x: Any) -> bool:
    """isinstance(x, np.ndarray), decided for a Python float or int
    (bools and numpy's float64 among them) without importing numpy."""
    return not isinstance(x, (float, int)) and isinstance(x, np.ndarray)
