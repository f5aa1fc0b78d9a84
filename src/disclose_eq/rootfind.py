"""Plain bisection helpers.

Every target the solvers hand to these routines is monotone (or has a
unique sign change) on the given bracket, so bisection is exact and
derivative-free.
"""
from __future__ import annotations

from typing import Callable

from .errors import BracketError

_MAX_ITER = 200  # 200 halvings take any bracket in [0, 1] far below every xtol in use


def bisect_root(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    *,
    xtol: float,
    f_lo: float | None = None,
    f_hi: float | None = None,
) -> float:
    """Root of f on [lo, hi] by bisection; f(lo) and f(hi) must differ in sign."""
    if f_lo is None:
        f_lo = f(lo)
    if f_lo == 0.0:
        return lo
    if f_hi is None:
        f_hi = f(hi)
    if f_hi == 0.0:
        return hi
    if (f_lo > 0.0) == (f_hi > 0.0):
        raise BracketError(f"no sign change on [{lo}, {hi}]: f={f_lo}, {f_hi}")
    lo_pos = f_lo > 0.0
    for _ in range(_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if hi - lo <= xtol:
            return mid
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid > 0.0) == lo_pos:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
