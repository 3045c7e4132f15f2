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


def _last_slope(xs: np.ndarray, ys: np.ndarray) -> float:
    """The slope of the final segment, which the continuation keeps past the last knot."""
    return (ys[-1] - ys[-2]) / (xs[-1] - xs[-2])


def _interp_extend(t: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    # np.interp is exact at knots; past the last knot continue the final
    # segment, computed only on the (usually few) entries out there
    out = np.interp(t, xs, ys)
    last = xs[-1]
    over = t > last
    if np.any(over):
        slope = _last_slope(xs, ys)
        if out.ndim == 0:
            return ys[-1] + (t - last) * slope
        out[over] = ys[-1] + (t[over] - last) * slope
    return out


@dataclass(frozen=True)
class FunctionPair:
    """phi and psi, the piecewise-linear interpolants of a norming pair.

    knots = (0, 1, ..., N); a_grid = (0, a_1, ..., a_N) and likewise
    b_grid, so evaluation is np.interp against these arrays.
    """

    pair: NormingPair
    knots: np.ndarray = field(repr=False)
    a_grid: np.ndarray = field(repr=False)
    b_grid: np.ndarray = field(repr=False)

    def _eval(self, t, grid: np.ndarray, name: str):
        tv = np.asarray(t, dtype=float)
        if np.any(tv < 0):
            raise DomainError(f"{name} is defined on [0, inf)")
        out = _interp_extend(tv, self.knots, grid)
        return float(out) if np.isscalar(t) else out

    def _eval_inverse(self, s, grid: np.ndarray, name: str):
        sv = np.asarray(s, dtype=float)
        if np.any(sv < 0):
            raise DomainError(f"{name} takes nonnegative arguments")
        out = _interp_extend(sv, grid, self.knots)
        return float(out) if np.isscalar(s) else out

    def phi(self, t):
        return self._eval(t, self.a_grid, "phi")

    def psi(self, t):
        return self._eval(t, self.b_grid, "psi")

    def phi_inverse(self, s):
        return self._eval_inverse(s, self.a_grid, "phi_inverse")

    def psi_inverse(self, s):
        return self._eval_inverse(s, self.b_grid, "psi_inverse")

    @property
    def slope_ratio(self) -> float:
        """phi's slope over psi's past the last knot, the limit of phi(psi_inverse(s)) / s."""
        return float(_last_slope(self.knots, self.a_grid) / _last_slope(self.knots, self.b_grid))

    def ratio(self, t):
        """psi(t) / phi(t), with the limit value b_1 / a_1 at t = 0."""
        tv = np.asarray(t, dtype=float)
        if np.any(tv < 0):
            raise DomainError("ratio is defined on [0, inf)")
        limit = self.b_grid[1] / self.a_grid[1]
        with np.errstate(invalid="ignore", divide="ignore"):
            out = np.where(
                tv == 0.0,
                limit,
                self._eval(tv, self.b_grid, "psi") / self._eval(tv, self.a_grid, "phi"),
            )
        return float(out) if np.isscalar(t) else out


def build_function_pair(pair: NormingPair) -> FunctionPair:
    n = len(pair)
    knots = np.arange(0, n + 1, dtype=float)
    a_grid = np.concatenate(([0.0], pair.a))
    b_grid = np.concatenate(([0.0], pair.b))
    return FunctionPair(pair=pair, knots=knots, a_grid=a_grid, b_grid=b_grid)
