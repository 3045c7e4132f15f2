"""Deterministic sample-path operators.

The rescale multipliers phi(psi_inverse(s))/s turn a vector of norm s
on the b_n scale into one of norm phi(psi_inverse(s)) on the a_n scale,
and the truncated-mean centering gamma_n centers the weak-law sums.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError, _refuse_nan
from .norming import FunctionPair
from .sources import STREAM_GAMMA, DistributionSpec, StreamKey, _budget_norms, _require_stream, truncated_mean

__all__ = ["rescale_factors", "gamma_n"]

# elements per rescale_factors slice: a slice's temporaries stay in cache
_RESCALE_SLICE = 1 << 14


def rescale_factors(norm_values: np.ndarray, fp: FunctionPair, out: np.ndarray | None = None) -> np.ndarray:
    """Batched multipliers phi(psi_inverse(s))/s with 0 -> 0.

    Norms beyond psi(N) use the linear continuation of the last
    segment, which is how the experiment suite keeps the transform
    total on unbounded laws.  An infinite norm (a float64 overflow)
    takes the continuation's limit, fp.slope_ratio, so the rescaled
    vector stays infinite instead of becoming NaN.  The norms go
    through fp.psi_inverse and fp.phi in slices of _RESCALE_SLICE
    elements; every step is elementwise, so the slicing changes no value.
    out, a C-contiguous float64 array of the norms' shape, receives the
    multipliers.
    """
    s = np.asarray(norm_values, dtype=float)
    flat = s.reshape(-1)
    out = np.empty(s.shape) if out is None else out
    out.fill(0.0)
    flat_out = out.reshape(-1)
    for start in range(0, flat.size, _RESCALE_SLICE):
        part = flat[start : start + _RESCALE_SLICE]
        into = flat_out[start : start + _RESCALE_SLICE]
        out_norm = fp.phi(fp.psi_inverse(part))
        positive = part > 0.0
        # inf / inf is the only invalid division here; its NaN is overwritten
        with np.errstate(invalid="ignore"):
            np.divide(out_norm, part, out=into, where=positive)
        into[part == np.inf] = fp.slope_ratio
    return out


def _gamma_mode(d: DistributionSpec, mode: str) -> str:
    """The gamma_n mode that runs: 'analytic' or 'monte_carlo', with 'auto' resolved.

    Whether a closed-form truncated mean exists depends on the law
    alone: truncated_mean returns None at every bound >= 0 or at none,
    so bound 0 decides it for the whole grid.
    """
    if mode not in ("auto", "analytic", "monte_carlo"):
        raise ConfigurationError(f"unknown gamma_n mode {mode!r}")
    closed = truncated_mean(d, 0.0) is not None
    if mode == "analytic" and not closed:
        raise ConfigurationError(
            f"no closed-form truncated mean for kind {d.kind!r} with lifting {d.lifting!r};"
            " use monte_carlo mode"
        )
    if mode == "auto":
        return "analytic" if closed else "monte_carlo"
    return mode


def gamma_n(
    d: DistributionSpec,
    b_n,
    n,
    mode: str = "analytic",
    R: int | None = None,
    key: StreamKey | None = None,
) -> np.ndarray:
    """n * E[X 1{||X|| <= b_n}], analytic or Monte Carlo.

    b_n and n are scalars, giving shape (dim,), or equal-length 1-d
    grids with b_n strictly increasing, giving one row per grid point,
    shape (len, dim).  Analytic mode covers every provably symmetric
    spec (the mean is zero), point masses, and one-dimensional
    Pareto/uniform laws and their shifts; 'auto' takes it whenever the
    law has it, else Monte Carlo.  Monte Carlo mode draws R vectors from
    key.substream(STREAM_GAMMA), disjoint from the experiment's sample
    paths, for the whole grid, through sources._budget_norms, so its
    memory does not grow with R.
    Each vector falls in the bin of the first b_n at or above its norm
    (a tie lies inside), each draw's bin sums add into the bins'
    coordinate sums, these accumulate along the grid, and row i is n_i
    times that partial sum over R.  The draw size fixes the order of the
    additions, so changing it moves the last bits.  An infinite draw
    lies beyond every finite b_n and adds nothing; a NaN norm is refused,
    with the count over all R, before any row is formed.
    """
    b = np.asarray(b_n, dtype=float)
    ns = np.asarray(n)
    if b.ndim > 1 or ns.shape != b.shape:
        raise ConfigurationError(
            f"b_n and n must be scalars or 1-d grids of one length, got shapes {b.shape} and {ns.shape}"
        )
    grid = b.ndim == 1
    b, ns = np.atleast_1d(b), np.atleast_1d(ns)
    if np.any(ns < 1):
        raise ConfigurationError(f"n must be >= 1, got {ns[ns < 1][0]}")
    if not np.all(np.diff(b) > 0):
        raise ConfigurationError("b_n must be strictly increasing")
    if _gamma_mode(d, mode) == "analytic":
        out = ns[:, None] * np.array([truncated_mean(d, float(t)) for t in b])
    else:
        _require_stream(R, key)
        rng = key.substream(STREAM_GAMMA).generator()
        dim = d.space.dim
        partial = np.zeros((b.size, dim))
        nan = 0
        for x, nx in _budget_norms(d, rng, R):
            nan += int(np.count_nonzero(np.isnan(nx)))
            # bin i holds b[i-1] < ||x|| <= b[i]; bin len(b), past the grid (NaN too), is
            # dropped.  One bincount for every coordinate: cell j * (len(b) + 1) + i sums
            # coordinate j of bin i in the draw's row order, as a bincount per coordinate would
            cells = np.searchsorted(b, nx, side="left") + (b.size + 1) * np.arange(dim)[:, None]
            sums = np.bincount(cells.ravel(), weights=x.T.ravel(), minlength=dim * (b.size + 1))
            partial += sums.reshape(dim, b.size + 1)[:, :-1].T
            del cells  # held into the next draw, it would add about a budget to the peak
        _refuse_nan(nan, R, "gamma_n", "Monte Carlo")
        out = ns[:, None] * np.cumsum(partial, axis=0) / R
    return out if grid else out[0]
