"""Finite-dimensional normed spaces (R^d with an l_q norm).

Vectors are one-dimensional numpy arrays (or anything ``np.asarray``
accepts).  Batched helpers treat the last axis as the coordinate axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError

__all__ = ["SpaceSpec", "norm", "norms"]

# numpy's sum adds this many terms or more pairwise, not left to right
_PAIRWISE_TERMS = 8


@dataclass(frozen=True)
class SpaceSpec:
    """The ambient space: R^dim equipped with the l_q norm.

    q may be any real in [1, inf]; ``math.inf`` selects the max norm.
    """

    dim: int
    q: float = 2.0

    def __post_init__(self):
        if not isinstance(self.dim, int) or isinstance(self.dim, bool):
            raise ConfigurationError(f"space.dim must be an integer, got {self.dim!r}")
        if self.dim < 1:
            raise ConfigurationError(f"space.dim must be >= 1, got {self.dim}")
        q = self.q
        if not (isinstance(q, (int, float)) and not isinstance(q, bool)):
            raise ConfigurationError(f"space.q must be a number or inf, got {q!r}")
        if math.isnan(q) or q < 1:
            raise ConfigurationError(f"space.q must lie in [1, inf], got {q}")
        object.__setattr__(self, "q", float(q))


def _check_dim(v: np.ndarray, space: SpaceSpec, what: str = "vector") -> None:
    if v.shape[-1] != space.dim:
        raise DomainError(
            f"{what} has {v.shape[-1]} coordinates, space has dim {space.dim}"
        )


def norm(v, space: SpaceSpec) -> float:
    """l_q norm of a single vector, accumulated with math.fsum.

    For dim == 1 this is exactly abs(v[0]) for every q (no roundoff
    from the power round trip).
    """
    a = np.asarray(v, dtype=float)
    if a.ndim != 1:
        raise DomainError(f"norm expects a single vector, got shape {a.shape}")
    _check_dim(a, space)
    if space.dim == 1:
        return abs(float(a[0]))
    q = space.q
    if math.isinf(q):
        return float(np.max(np.abs(a)))
    if q == 1.0:
        return math.fsum(abs(float(x)) for x in a)
    if q == 2.0:
        return math.sqrt(math.fsum(float(x) * float(x) for x in a))
    return math.fsum(abs(float(x)) ** q for x in a) ** (1.0 / q)


def norms(arr, space: SpaceSpec, out: np.ndarray | None = None) -> np.ndarray:
    """Batched l_q norms along the last axis (vectorised, no fsum), into out if given.

    For q in {1, 2, inf} the norm accumulates over the columns a[..., j],
    j = 0, 1, ..., with in-place ufuncs instead of numpy's reduce over
    the short last axis, which is several times slower.  Below
    _PAIRWISE_TERMS columns that reduce adds in the same j order, so the
    norms are bit-identical to it; from there on numpy sums pairwise,
    and q = 1 and 2 keep the reduce.  The reduce reads C-ordered rows
    whatever the layout of arr (numpy adds a transposed view in another
    order), so no norm depends on the layout of arr.  out, a float64
    array of shape arr.shape[:-1], receives the same bits.
    """
    a = np.asarray(arr, dtype=float)
    _check_dim(a, space, "last axis")
    dim, q = space.dim, space.q
    if dim == 1:
        return np.abs(np.squeeze(a, axis=-1), out=out)
    if math.isinf(q):
        step = np.maximum
    elif q in (1.0, 2.0) and dim < _PAIRWISE_TERMS:
        step = np.add
    elif q == 1.0:
        return np.sum(np.abs(a, order="C"), axis=-1, out=out)
    elif q == 2.0:
        return np.sqrt(np.sum(np.multiply(a, a, order="C"), axis=-1, out=out), out=out)
    else:
        out = np.sum(np.abs(a, order="C") ** q, axis=-1, out=out)
        # in place on an array; a single vector's scalar takes the scalar power, as before
        out **= 1.0 / q
        return out

    def column(j, into=None):
        # a slice, not a[..., j], so a single vector gives an array out= can write
        c = a[..., j : j + 1]
        return np.multiply(c, c, out=into) if q == 2.0 else np.abs(c, out=into)

    # a given out accumulates as a (..., 1) column, the slices' shape
    out = column(0, None if out is None else out[..., None])
    for j in range(1, dim):
        step(out, column(j), out=out)
    if q == 2.0:
        np.sqrt(out, out=out)
    # [()] turns a single vector's 0-d result into a scalar, as the reduce gives
    return out[..., 0][()]


def _summand_sums(v: np.ndarray) -> np.ndarray:
    """v.sum(axis=1) for v of shape (m, n, dim), bit for bit.

    For dim >= 2 the reduce adds the n terms left to right through an
    inner loop only dim elements long; einsum adds them in the same
    order in a register, several times faster.  For dim == 1 the summed
    axis is contiguous, numpy sums it pairwise, and einsum's loop differs
    in the last bit, so the reduce stays.  The test_summand_sums_equal_the_reduce
    tests hold both facts.
    """
    if v.shape[-1] == 1:
        return v.sum(axis=1)
    return np.einsum("mnd->md", v)

