"""Small numeric helpers shared across modules.

All information quantities in this package are in bits (logs base 2).
Information and cost sums use compensated summation (fsum_array) so that
entropy accumulations do not drift at the 1e-12 tolerances the invariants demand.
"""

from __future__ import annotations

import math
import numbers

import numpy as np


def is_integer(v) -> bool:
    """An integer, not a bool (JSON's true reads as 1)."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def is_number(v) -> bool:
    """A real number, not a bool."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def raise_first(violations: list[str]) -> None:
    """Raise ValueError with the first of a list of broken rules, if any."""
    if violations:
        raise ValueError(violations[0])


def read_only(a: np.ndarray) -> np.ndarray:
    """``a`` itself, made read-only in place: for a fresh array that
    nothing else holds."""
    a.setflags(write=False)
    return a


def freeze(a, dtype=float) -> np.ndarray:
    """Return a read-only float array copy of ``a``, for arrays a caller
    passes in and may still hold.

    An array that already is read-only, owns its memory and has the dtype
    is returned as is: nothing can write to it without first re-enabling
    writes on it.
    """
    if (isinstance(a, np.ndarray) and not a.flags.writeable
            and a.flags.owndata and a.dtype == dtype):
        return a
    return read_only(np.array(a, dtype=dtype))


def non_finite(**arrays) -> list[str]:
    """``<name>: entries must be finite`` for each named array that holds a
    NaN or an infinity, in argument order; None entries are skipped."""
    return [f"{name}: entries must be finite" for name, a in arrays.items()
            if a is not None and not np.all(np.isfinite(a))]


def fsum_array(a: np.ndarray) -> float:
    """Compensated sum of all entries."""
    return math.fsum(np.asarray(a, dtype=float).ravel().tolist())


def project_to_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection of the last axis of ``v`` onto the probability simplex.

    With u sorted in descending order, the shift is the largest of the
    partial-sum thresholds (u_1 + ... + u_j - 1) / j.
    """
    v = np.asarray(v, dtype=float)
    u = np.sort(v, axis=-1)[..., ::-1]
    css = np.cumsum(u, axis=-1) - 1.0
    theta = (css / np.arange(1.0, v.shape[-1] + 1.0)).max(axis=-1, keepdims=True)
    return np.maximum(v - theta, 0.0)
