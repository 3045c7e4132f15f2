"""Tail-probability estimation.

Two regimes: exhaustive enumeration over the Rademacher sign patterns
(n <= 20), the 2^(n-1) with eps_n = +1 standing for all 2^n because
flipping every sign leaves a norm unchanged, and blocked Monte Carlo
with exact Clopper-Pearson binomial intervals.  Each block of
replications owns a counter-based stream and workers add block results
into running totals, so memory does not grow with the block count and
the integer totals do not depend on the worker count.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .space import SpaceSpec, norms
from .sources import StreamKey

__all__ = [
    "TailEstimate",
    "clopper_pearson",
    "enumerate_sign_norms",
    "mc_counts",
    "ENUMERATION_MAX_N",
    "DEFAULT_BLOCK_SIZE",
]

ENUMERATION_MAX_N = 20
DEFAULT_BLOCK_SIZE = 4096


def _require_counts(successes, n) -> np.ndarray:
    """successes as an array, once it is an integer count, or counts, in [0, n] of an integer n >= 1."""
    k = np.asarray(successes)
    counts = k.dtype.kind in "iu" and np.asarray(n).dtype.kind in "iu" and n >= 1
    bad = (k < 0) | (k > n) if counts else np.True_
    if bad.any():
        rule = (
            f"lie in [0, {n}], got {k[bad][0]}"
            if counts
            else f"be integers out of an integer n >= 1, got {successes!r} of {n!r}"
        )
        raise ConfigurationError(f"successes must {rule}")
    return k


def _require_confidence(confidence: float) -> None:
    if not (0 < confidence < 1):
        raise ConfigurationError(f"confidence must lie in (0, 1), got {confidence}")


def clopper_pearson(successes, n: int, confidence: float = 0.99):
    """Exact two-sided binomial confidence bounds from beta quantiles.

    The quantiles of Beta(k, n - k + 1) and Beta(k + 1, n - k) come from
    betaincinv.  successes is an integer or an integer array of counts
    in [0, n] and n an integer >= 1; anything else is refused.  For an
    array the bounds are two arrays of its shape, from one quantile call
    per bound, equal entry by entry to the scalar form's floats.
    """
    k = _require_counts(successes, n)
    _require_confidence(confidence)
    # imported here, not at the top: scipy.special costs more start-up than the rest of
    # the program, and only a Monte Carlo interval needs it
    from scipy.special import betaincinv

    tail = (1.0 - confidence) / 2.0
    # betaincinv gives NaN at k = 0 (low) and k = n (high), where the bounds are 0 and 1
    low = np.where(k == 0, 0.0, betaincinv(k, n - k + 1, tail))
    high = np.where(k == n, 1.0, betaincinv(k + 1, n - k, 1.0 - tail))
    if k.ndim == 0:
        return float(low), float(high)
    return low, high


@dataclass(frozen=True)
class TailEstimate:
    """An estimated probability with exact binomial bounds.

    exact = True marks enumeration results, where the bounds collapse
    onto p_hat.
    """

    p_hat: float
    successes: int
    replications: int
    ci_low: float
    ci_high: float
    exact: bool = False

    def __post_init__(self):
        if not (self.ci_low <= self.p_hat <= self.ci_high):
            raise ConfigurationError("estimate bounds must bracket p_hat")
        if self.exact and not (self.ci_low == self.p_hat == self.ci_high):
            raise ConfigurationError("exact estimates carry degenerate bounds")

    @property
    def std_error(self) -> float:
        if self.exact:
            return 0.0
        p = self.p_hat
        return math.sqrt(p * (1.0 - p) / self.replications)

    @classmethod
    def from_counts(
        cls, successes: int, replications: int, confidence: float = 0.99, exact: bool = False
    ) -> "TailEstimate":
        return _estimates(successes, replications, confidence, exact)[0]

    @classmethod
    def known(cls, p: float) -> "TailEstimate":
        """A probability known in closed form, carried as a degenerate estimate."""
        return cls(p, 0, 1, p, p, True)


def _estimates(counts, reps: int, confidence: float, exact: bool = False) -> list[TailEstimate]:
    """One TailEstimate per count out of reps (a list of one for a scalar count).

    Exact estimates take p = c / reps in Python arithmetic, which does not
    round counts past 2^53 (exact Levy's 4^n pairs), as both bounds; the
    others take Clopper-Pearson bounds from one quantile call per side.
    """
    _require_confidence(confidence)
    if exact:
        k = _require_counts(counts, reps).reshape(-1).tolist()
        return [TailEstimate(c / reps, c, reps, c / reps, c / reps, True) for c in k]
    low, high = clopper_pearson(counts, reps, confidence)
    k, low, high = (np.reshape(a, -1).tolist() for a in (counts, low, high))
    return [TailEstimate(c / reps, c, reps, lo, hi) for c, lo, hi in zip(k, low, high)]


def _require_enumerable(n: int) -> None:
    """Exact mode enumerates the sign patterns of n summands, 1 <= n <= ENUMERATION_MAX_N."""
    if n < 1:
        raise ConfigurationError(f"n = {n}: exact mode enumerates the signs of at least one summand")
    if n > ENUMERATION_MAX_N:
        raise ConfigurationError(
            f"n = {n} exceeds the 2^{ENUMERATION_MAX_N} enumeration budget; use Monte Carlo"
        )


def enumerate_sign_norms(x, space: SpaceSpec) -> np.ndarray:
    """l_q norms of sum_i eps_i x_i over the 2^(n-1) sign patterns with eps_n = +1.

    Flipping every sign negates each rounded sum exactly, so the other
    2^(n-1) patterns repeat these norms: a count over all 2^n patterns
    is twice the count over these.  Pattern k sets eps_i = +1 (i < n - 1,
    from 0) when bit i of k is set.  A (dim, 2^(n-1)) buffer fills by
    doubling along its contiguous rows: adding x_i to the sums over the
    bits below i gives those with bit i set, subtracting it those with
    it clear; x_n comes last, about 2^n * dim additions in all.  norms
    takes the transposed view, whose layout does not change its bits, so
    the norms are bit-identical to adding eps_i * x_i term by term.
    Weights go into x (w_i x_i); 1 <= n <= ENUMERATION_MAX_N.
    """
    xa = np.atleast_2d(np.asarray(x, dtype=float))
    n = xa.shape[0]
    if xa.shape[1] != space.dim:
        raise ConfigurationError(f"vectors have dim {xa.shape[1]}, space has dim {space.dim}")
    _require_enumerable(n)
    cols = xa[:, :, None]  # x_i as a (dim, 1) column, one term per coordinate row
    sums = np.zeros((space.dim, 1 << (n - 1)))
    for i in range(n - 1):
        h = 1 << i
        np.add(sums[:, :h], cols[i], out=sums[:, h : 2 * h])
        np.subtract(sums[:, :h], cols[i], out=sums[:, :h])
    sums += cols[n - 1]
    return norms(sums.T, space)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _worker_count(threads: int, blocks: int, cpus: int) -> int:
    """Threads worth starting: no more than the blocks to run or the CPUs to run them."""
    return min(threads, blocks, cpus)


def _add(total, part) -> tuple:
    """Elementwise sum of two block results; None is the empty total."""
    return tuple(part) if total is None else tuple(t + p for t, p in zip(total, part))


def _require_block_size(block_size: int) -> None:
    if block_size < 1:
        raise ConfigurationError(f"block_size must be >= 1, got {block_size}")


def _require_threads(threads: int) -> None:
    if threads < 1:
        raise ConfigurationError(f"threads must be >= 1, got {threads}")


def mc_counts(
    block_fn, R: int, key: StreamKey, *, block_size: int = DEFAULT_BLOCK_SIZE, threads: int = 1
) -> tuple:
    """Elementwise sums of block_fn(rng, m) over the blocks of R replications.

    block_fn returns a tuple of int64 arrays or ints.  Block i holds
    min(block_size, R - i * block_size) replications and draws from
    key.child(i).  Each worker claims the next index from one shared
    counter and adds the block's result into its one running total, so
    memory does not grow with the number of blocks.  Integer addition
    is exact and order-free, so the sums cannot depend on the thread
    count or on which worker ran which block.  Up to `threads` workers
    run, never more than the blocks or usable CPUs; one runs in the
    caller.  A raising block stops every worker at its next claim.
    """
    if R < 1:
        raise ConfigurationError(f"R must be >= 1, got {R}")
    _require_block_size(block_size)
    _require_threads(threads)
    blocks = -(-R // block_size)
    lock = threading.Lock()
    claimed = 0

    def work():
        nonlocal claimed
        total = None
        while True:
            with lock:
                i, claimed = claimed, claimed + 1
            if i >= blocks:
                return total
            rng = key.child(i).generator()
            try:
                total = _add(total, block_fn(rng, min(block_size, R - i * block_size)))
            except BaseException:
                with lock:
                    claimed = blocks
                raise

    workers = _worker_count(threads, blocks, _usable_cpus())
    if workers == 1:
        return work()
    # imported here, not at the top: concurrent.futures loads logging, about 12 ms of
    # every cold start, and only a threaded pass needs it
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        parts = [f.result() for f in [pool.submit(work) for _ in range(workers)]]
    return functools.reduce(_add, [p for p in parts if p is not None])
