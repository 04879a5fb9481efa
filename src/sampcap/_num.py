"""Small numeric helpers shared across modules.

All information quantities in this package are in bits (logs base 2).
Information and cost sums use compensated summation (fsum_array) so that
entropy accumulations do not drift at the 1e-12 tolerances the invariants demand.
Reductions over a short last axis (a slice's entries, an input alphabet,
the states of a belief) go through fold_last, column by column: numpy's
reduction is several times slower over a last axis of a few entries.
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


def fold_last(op, a: np.ndarray) -> np.ndarray:
    """The ufunc op folded over the last axis of a, column by column, as a
    fresh array. Below 8 entries numpy's np.add.reduce adds in this same
    order, so the sums are bit for bit its sums; np.maximum gives its
    maximum at any length."""
    out = op(a[..., 0], a[..., 1]) if a.shape[-1] > 1 else a[..., 0].copy()
    for j in range(2, a.shape[-1]):
        op(out, a[..., j], out=out)
    return out


def project_to_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection of the last axis of ``v`` onto the probability simplex.

    With u_1 >= u_2 >= ... the entries in descending order, the shift is
    the largest of the partial-sum thresholds (u_1 + ... + u_j - 1) / j.
    The sorted columns are walked from the largest entry down, a running
    sum and a running maximum per row: the same additions in the same
    order as a cumulative sum, so the shift is bit for bit the threshold
    maximum.
    """
    v = np.asarray(v, dtype=float)
    u = np.sort(v, axis=-1)
    n = v.shape[-1]
    css = u[..., n - 1:].copy()
    theta = css - 1.0
    for j in range(2, n + 1):
        css += u[..., n - j:n - j + 1]
        np.maximum(theta, (css - 1.0) / j, out=theta)
    return np.maximum(v - theta, 0.0)
