"""Norming sequences and their piecewise-linear interpolants.

A norming pair is two positive, strictly increasing sequences
a_1 <= ... <= a_N and b_1, ..., b_N (same length).  The associated
functions phi and psi interpolate them linearly on [0, N] with
phi(0) = psi(0) = 0 and phi(n) = a_n, psi(n) = b_n at integer knots;
past the last knot both continue with the final segment's slope, so
they stay strictly increasing on [0, inf) and are invertible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DomainError

__all__ = [
    "NormingPair",
    "FunctionPair",
    "build_function_pair",
    "check_ratio_monotone",
    "power_pair",
]

# relative slack of the b/a monotonicity check, absorbing roundoff in b_n / a_n
_RATIO_RTOL = 1e-12


def _as_increasing(seq, name: str) -> np.ndarray:
    arr = np.asarray(seq, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise DomainError(f"{name} must be a nonempty 1-d sequence")
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} contains a non-finite entry")
    if arr[0] <= 0:
        raise DomainError(f"{name}[1] must be positive, got {arr[0]}")
    diffs = np.diff(arr)
    if np.any(diffs <= 0):
        k = int(np.argmax(diffs <= 0))
        raise DomainError(
            f"{name} must be strictly increasing; {name}[{k + 2}] = {arr[k + 1]}"
            f" does not exceed {name}[{k + 1}] = {arr[k]}"
        )
    # the inverse map's slopes are 1 / (gap between neighbours, from 0 on)
    with np.errstate(divide="ignore", over="ignore"):
        steep = ~np.isfinite(1.0 / np.diff(arr, prepend=0.0))
    if np.any(steep):
        k = int(np.argmax(steep))
        below = f"{name}[{k}] = {arr[k - 1]}" if k else "0"
        raise DomainError(
            f"{name}[{k + 1}] = {arr[k]} lies too close to {below}:"
            " the inverse slope over that gap overflows"
        )
    return arr


@dataclass(frozen=True)
class NormingPair:
    """Sequences (a_n) and (b_n), n = 1..N, positive and strictly increasing."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = _as_increasing(self.a, "a")
        b = _as_increasing(self.b, "b")
        if a.shape != b.shape:
            raise DomainError(f"a has length {a.size}, b has length {b.size}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def __len__(self) -> int:
        return int(self.a.size)

    def at(self, n: int) -> tuple[float, float]:
        """(a_n, b_n); the one place the index rule 1 <= n <= N is checked."""
        if not 1 <= n <= len(self):
            raise ConfigurationError(
                f"n must lie in [1, {len(self)}] (N is the norming pair length), got {n}"
            )
        return float(self.a[n - 1]), float(self.b[n - 1])


def check_ratio_monotone(pair: NormingPair) -> bool:
    """True when b_n / a_n is nondecreasing in n, up to _RATIO_RTOL * max(b/a)."""
    r = pair.b / pair.a
    slack = _RATIO_RTOL * float(np.max(r))
    return bool(np.all(np.diff(r) >= -slack))


def power_pair(n_max: int, exp_a: float, exp_b: float = 1.0) -> NormingPair:
    """The pair a_n = n**exp_a, b_n = n**exp_b for n = 1..n_max.

    Both exponents must be positive; exp_b >= exp_a keeps b_n / a_n
    nondecreasing.
    """
    if n_max < 1:
        raise ConfigurationError(f"n_max must be >= 1, got {n_max}")
    if exp_a <= 0 or exp_b <= 0:
        raise ConfigurationError("power_pair exponents must be positive")
    n = np.arange(1, n_max + 1, dtype=float)
    return NormingPair(a=n**exp_a, b=n**exp_b)


class _Segments:
    """The piecewise-linear map through the knots (xs, ys), as np.interp computes it.

    A point x in segment j, xs[j] <= x < xs[j + 1], maps to
    slope[j] * (x - xs[j]) + ys[j] with slope[j] = (ys[j + 1] - ys[j]) /
    (xs[j + 1] - xs[j]): the two operations np.interp makes, in its order,
    so each value equals np.interp's bit for bit.  Index N = xs.size - 1
    holds the last slope again, so x = xs[N] gives ys[N] and a point past
    the last knot continues the final segment.  Only the way j is found
    differs from np.interp's binary search: on the knots 0, 1, ..., N it
    is min(floor(x), N), on any other grid np.searchsorted.
    """

    def __init__(self, xs: np.ndarray, ys: np.ndarray):
        slopes = (ys[1:] - ys[:-1]) / (xs[1:] - xs[:-1])
        self.xs, self.ys, self.slopes = xs, ys, np.append(slopes, slopes[-1])
        self.integer_knots = bool(np.array_equal(xs, np.arange(xs.size)))

    def _segment(self, x: np.ndarray) -> np.ndarray:
        """j with xs[j] <= x < xs[j + 1], or N at and past the last knot."""
        if self.integer_knots:
            return np.fmin(x, self.xs.size - 1).astype(np.intp)
        return np.searchsorted(self.xs, x, side="right") - 1

    def __call__(self, x: np.ndarray) -> np.ndarray:
        flat = x.reshape(-1)
        j = self._segment(flat)
        out = self.slopes.take(j)
        out *= flat - self.xs.take(j)
        out += self.ys.take(j)
        return out.reshape(x.shape)


@dataclass(frozen=True)
class FunctionPair:
    """phi and psi, the piecewise-linear interpolants of a norming pair.

    knots = (0, 1, ..., N); a_grid = (0, a_1, ..., a_N) and likewise
    b_grid, derived from pair.  Each of phi, psi and their inverses is a
    _Segments map over these arrays, built once here: it equals np.interp
    bit for bit on [0, last knot] and continues the last segment past it.
    """

    pair: NormingPair
    knots: np.ndarray = field(init=False, repr=False)
    a_grid: np.ndarray = field(init=False, repr=False)
    b_grid: np.ndarray = field(init=False, repr=False)
    _maps: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "knots", np.arange(0, len(self.pair) + 1, dtype=float))
        object.__setattr__(self, "a_grid", np.concatenate(([0.0], self.pair.a)))
        object.__setattr__(self, "b_grid", np.concatenate(([0.0], self.pair.b)))
        maps = {
            "phi": _Segments(self.knots, self.a_grid),
            "psi": _Segments(self.knots, self.b_grid),
            "phi_inverse": _Segments(self.a_grid, self.knots),
            "psi_inverse": _Segments(self.b_grid, self.knots),
        }
        object.__setattr__(self, "_maps", maps)

    def _eval(self, t, name: str):
        tv = np.asarray(t, dtype=float)
        if (tv < 0).any():
            raise DomainError(f"{name} takes nonnegative arguments")
        out = self._maps[name](tv)
        return float(out) if np.isscalar(t) else out

    def phi(self, t):
        return self._eval(t, "phi")

    def psi(self, t):
        return self._eval(t, "psi")

    def phi_inverse(self, s):
        return self._eval(s, "phi_inverse")

    def psi_inverse(self, s):
        return self._eval(s, "psi_inverse")

    @property
    def slope_ratio(self) -> float:
        """phi's slope over psi's past the last knot, the limit of phi(psi_inverse(s)) / s."""
        return float(self._maps["phi"].slopes[-1] / self._maps["psi"].slopes[-1])


def build_function_pair(pair: NormingPair) -> FunctionPair:
    return FunctionPair(pair)
