"""Reproducible generators for the random inputs of the experiments.

Scalar laws (random signs, symmetric and one-sided Pareto, symmetric
stable, uniform on an interval, point masses, shifted laws) plus three
liftings into R^d.  Every draw is a pure function of a StreamKey, so
replications can fan out across workers in any order and still
reproduce bit for bit.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError
from .space import SpaceSpec, norm, norms

__all__ = [
    "StreamKey",
    "DistributionSpec",
    "rademacher",
    "pareto_symmetric",
    "pareto_one_sided",
    "stable_symmetric",
    "uniform_ball",
    "point_mass",
    "shifted",
    "sample",
    "uniform_in_ball",
    "draw",
    "is_symmetric",
    "tail_prob",
    "truncated_mean",
    "STREAM_GAMMA",
    "STREAM_CRITERION",
    "STREAM_VECTORS",
    "STREAM_CRITERION_SYMM",
]

# draw_counter conventions; distinct values give disjoint substreams, and
# the default 0 carries the experiment's sample paths
STREAM_GAMMA = 2
STREAM_CRITERION = 3
STREAM_VECTORS = 4
STREAM_CRITERION_SYMM = 5

# float64 elements of one weak-law draw: a chunk of summands for every running
# sum of a block, or a gamma_n or criterion draw; 2 MB, a typical L2 cache
_BUDGET_ELEMENTS = 1 << 18

_REPLICATION_BITS = 48
_MAX_REPLICATION = 1 << _REPLICATION_BITS
_MAX_COUNTER = 1 << (64 - _REPLICATION_BITS)


@dataclass(frozen=True)
class StreamKey:
    """Addresses one random substream.

    The triple (master_seed, replication_index, draw_counter) is packed
    into the 128-bit Philox key, so distinct triples give statistically
    independent streams and the same triple always replays the same
    draws.
    """

    master_seed: int
    replication_index: int = 0
    draw_counter: int = 0

    def __post_init__(self):
        if not (0 <= self.master_seed < 2**64):
            raise ConfigurationError(f"master_seed must be a 64-bit integer, got {self.master_seed}")
        if not (0 <= self.replication_index < _MAX_REPLICATION):
            raise ConfigurationError(f"replication_index out of range: {self.replication_index}")
        if not (0 <= self.draw_counter < _MAX_COUNTER):
            raise ConfigurationError(f"draw_counter out of range: {self.draw_counter}")

    def replication(self, i: int) -> "StreamKey":
        return replace(self, replication_index=i)

    def child(self, i: int) -> "StreamKey":
        """The i-th child stream of this key.

        Under a parent with replication index 0 this is replication(i),
        so top-level keys keep their streams.  Any other parent hashes
        (master_seed, replication_index, draw_counter, i) into a fresh
        64-bit master seed, keeping the draw counter, with replication
        index 0.  Parents that differ only in their replication index
        therefore have different children; only a 64-bit hash collision
        could make two children coincide.
        """
        if self.replication_index == 0:
            return self.replication(i)
        if not (0 <= i < _MAX_REPLICATION):
            raise ConfigurationError(f"child index out of range: {i}")
        words = struct.pack("<4Q", self.master_seed, self.replication_index, self.draw_counter, i)
        seed = int.from_bytes(hashlib.blake2b(words, digest_size=8).digest(), "little")
        return StreamKey(seed, 0, self.draw_counter)

    def substream(self, c: int) -> "StreamKey":
        return replace(self, draw_counter=c)

    def generator(self) -> np.random.Generator:
        word = (self.draw_counter << _REPLICATION_BITS) | self.replication_index
        key = np.array([self.master_seed, word], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


def _require_stream(R, key) -> None:
    """What every Monte Carlo run needs: a StreamKey and R >= 100 replications."""
    if key is None:
        raise ConfigurationError("Monte Carlo needs a StreamKey")
    if R is None or R < 100:
        raise ConfigurationError(f"Monte Carlo needs R >= 100, got {R}")


_KINDS = {
    "rademacher",
    "pareto_symmetric",
    "pareto_one_sided",
    "stable_symmetric",
    "uniform_ball",
    "point_mass",
    "shifted",
}
_LIFTINGS = {"scalar", "iid_coordinates", "radial"}
_SYMMETRIC_KINDS = {"rademacher", "pareto_symmetric", "stable_symmetric", "uniform_ball"}


@dataclass(frozen=True)
class DistributionSpec:
    """A scalar law plus a lifting into the ambient space.

    kind parameters: alpha for the Pareto and stable families, radius
    for uniform_ball, v for point_mass, base/shift for shifted.  The
    liftings:

      scalar           the law itself (dim must be 1)
      iid_coordinates  each coordinate an independent scalar draw,
                       scaled by dim**(-1/q) so norms are comparable
                       across dimensions
      radial           |scalar draw| times a uniform direction on the
                       unit l_q sphere; keeps the norm's law equal to
                       the law of |scalar|

    point_mass and shifted carry their own vectors; the lifting field
    applies to the base law of shifted and is ignored by point_mass.
    """

    kind: str
    space: SpaceSpec
    lifting: str = "scalar"
    alpha: float | None = None
    radius: float | None = None
    v: tuple | None = None
    base: "DistributionSpec | None" = None
    shift: tuple | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ConfigurationError(f"unknown distribution kind {self.kind!r}")
        if self.lifting not in _LIFTINGS:
            raise ConfigurationError(f"unknown lifting {self.lifting!r}")
        if self.kind in ("pareto_symmetric", "pareto_one_sided"):
            if self.alpha is None or not (self.alpha > 0):
                raise ConfigurationError(f"{self.kind} needs tail index alpha > 0, got {self.alpha}")
        if self.kind == "stable_symmetric":
            if self.alpha is None or not (0 < self.alpha <= 2):
                raise ConfigurationError(f"stable_symmetric needs alpha in (0, 2], got {self.alpha}")
        if self.kind == "uniform_ball":
            if self.radius is None or not (self.radius > 0):
                raise ConfigurationError(f"uniform_ball needs radius > 0, got {self.radius}")
        if self.kind == "point_mass":
            if self.v is None or len(self.v) != self.space.dim:
                raise ConfigurationError("point_mass needs a vector v matching space.dim")
            object.__setattr__(self, "v", tuple(float(c) for c in self.v))
        if self.kind == "shifted":
            if self.base is None or self.shift is None:
                raise ConfigurationError("shifted needs a base spec and a shift vector")
            if len(self.shift) != self.space.dim:
                raise ConfigurationError("shifted.shift must match space.dim")
            if self.base.space != self.space:
                raise ConfigurationError("shifted.base must live in the same space")
            object.__setattr__(self, "shift", tuple(float(c) for c in self.shift))
        if self.lifting == "scalar" and self.kind not in ("point_mass", "shifted"):
            if self.space.dim != 1:
                raise ConfigurationError("scalar lifting requires space.dim == 1")


def _scalar_space(dim: int = 1, q: float = 2.0) -> SpaceSpec:
    return SpaceSpec(dim=dim, q=q)


def rademacher(space: SpaceSpec | None = None, lifting: str = "scalar") -> DistributionSpec:
    return DistributionSpec(kind="rademacher", space=space or _scalar_space(), lifting=lifting)


def pareto_symmetric(alpha: float, space: SpaceSpec | None = None, lifting: str = "scalar") -> DistributionSpec:
    """P(X > t) = P(X < -t) = t**-alpha / 2 for t >= 1.

    Each draw spends one 53-bit uniform u on both its sign and its
    magnitude (1 - v)**(-1/alpha), with v uniform on a 2**-52 grid, so
    the largest magnitude is 2**(52/alpha).  It is finite for alpha >
    52/1024, about 0.0508; below that a draw is +-inf with probability
    about 2**(-1024 * alpha).
    """
    return DistributionSpec(kind="pareto_symmetric", space=space or _scalar_space(), lifting=lifting, alpha=alpha)


def pareto_one_sided(alpha: float, space: SpaceSpec | None = None, lifting: str = "scalar") -> DistributionSpec:
    return DistributionSpec(kind="pareto_one_sided", space=space or _scalar_space(), lifting=lifting, alpha=alpha)


def stable_symmetric(alpha: float, space: SpaceSpec | None = None, lifting: str = "scalar") -> DistributionSpec:
    return DistributionSpec(kind="stable_symmetric", space=space or _scalar_space(), lifting=lifting, alpha=alpha)


def uniform_ball(radius: float, space: SpaceSpec | None = None, lifting: str = "scalar") -> DistributionSpec:
    return DistributionSpec(kind="uniform_ball", space=space or _scalar_space(), lifting=lifting, radius=radius)


def point_mass(v, space: SpaceSpec | None = None) -> DistributionSpec:
    vv = tuple(float(c) for c in np.atleast_1d(v))
    return DistributionSpec(kind="point_mass", space=space or _scalar_space(dim=len(vv)), v=vv)


def shifted(base: DistributionSpec, shift) -> DistributionSpec:
    sv = tuple(float(c) for c in np.atleast_1d(shift))
    return DistributionSpec(kind="shifted", space=base.space, lifting=base.lifting, base=base, shift=sv)


def _stable_draws(alpha: float, rng: np.random.Generator, shape) -> np.ndarray:
    """Chambers-Mallows-Stuck: a uniform angle and an exponential."""
    theta = rng.uniform(-math.pi / 2, math.pi / 2, shape)
    if alpha == 1.0:
        # the Cauchy case needs no exponential at all
        return np.tan(theta, out=theta)
    w = rng.standard_exponential(shape)
    # (sin(at) / cos(theta) ** (1 / alpha)) * (cos(theta - at) / w) ** ((1 - alpha) / alpha),
    # each step in place; the same operations on the same operands, so the same bits
    at = alpha * theta
    c = np.cos(theta)
    np.subtract(theta, at, out=theta)
    np.cos(theta, out=theta)
    theta /= w
    theta **= (1.0 - alpha) / alpha
    np.sin(at, out=at)
    c **= 1.0 / alpha
    at /= c
    at *= theta
    return at


def _random_signs(rng: np.random.Generator, shape) -> np.ndarray:
    """Independent fair +-1.0 floats, one raw random bit each."""
    n = math.prod(shape)
    bits = np.unpackbits(np.frombuffer(rng.bytes((n + 7) // 8), dtype=np.uint8), count=n)
    return (bits * 2.0 - 1.0).reshape(shape)


def _pareto_tail(alpha: float, u: np.ndarray) -> np.ndarray:
    """(1 - u)**(-1/alpha), in place: support [1, inf), P(X > t) = t**-alpha for uniform u."""
    np.subtract(1.0, u, out=u)
    u **= -1.0 / alpha
    return u


def _scalar_draws(d: DistributionSpec, rng: np.random.Generator, shape) -> np.ndarray:
    k = d.kind
    if k == "rademacher":
        return _random_signs(rng, shape)
    if k == "pareto_one_sided":
        return _pareto_tail(d.alpha, rng.random(shape))
    if k == "pareto_symmetric":
        # the top bit of u is the sign; v = 2u - [u >= 1/2] is the rest
        # of u, exactly, and uniform on a 2**-52 grid independent of it
        u = rng.random(shape)
        upper = u >= 0.5
        u *= 2.0
        u -= upper
        x = _pareto_tail(d.alpha, u)
        # upper's bytes as int8 turned from {0, 1} into {-1, +1} in place:
        # numpy's masked negative runs several times slower
        sign = upper.view(np.int8)
        sign *= 2
        sign -= 1
        x *= sign
        return x
    if k == "stable_symmetric":
        return _stable_draws(d.alpha, rng, shape)
    if k == "uniform_ball":
        return rng.uniform(-d.radius, d.radius, shape)
    raise ConfigurationError(f"kind {k!r} has no scalar form")


def _sphere_directions(rng: np.random.Generator, shape, space: SpaceSpec) -> np.ndarray:
    """Uniform directions on the unit l_q sphere of the space.

    Coordinates with density proportional to exp(-|t|^q), normalized,
    land uniformly on the sphere: standard normals for q = 2 (Muller,
    CACM 1959), signed standard exponentials for q = 1, signed
    Gamma(1/q)^(1/q) otherwise; the cube's uniform law for q = inf.
    """
    full = tuple(shape) + (space.dim,)
    q = space.q
    if math.isinf(q):
        g = rng.uniform(-1.0, 1.0, full)
    elif q == 2.0:
        g = rng.standard_normal(full)
    elif q == 1.0:
        g = rng.standard_exponential(full) * _random_signs(rng, full)
    else:
        g = rng.standard_gamma(1.0 / q, full) ** (1.0 / q) * _random_signs(rng, full)
    scale = norms(g, space)[..., None]
    scale[scale == 0.0] = 1.0
    g /= scale
    return g


def draw(d: DistributionSpec, rng: np.random.Generator, shape) -> np.ndarray:
    """Draw an array of vectors of shape (*shape, dim) from d using rng."""
    if isinstance(shape, int):
        shape = (shape,)
    dim = d.space.dim
    if d.kind == "point_mass":
        return np.broadcast_to(np.asarray(d.v, dtype=float), tuple(shape) + (dim,)).copy()
    if d.kind == "shifted":
        return draw(d.base, rng, shape) + np.asarray(d.shift, dtype=float)
    if d.lifting == "scalar":
        return _scalar_draws(d, rng, shape)[..., None]
    if d.lifting == "iid_coordinates":
        q = d.space.q
        x = _scalar_draws(d, rng, tuple(shape) + (dim,))
        factor = 1.0 if math.isinf(q) else dim ** (-1.0 / q)
        if factor != 1.0:
            x *= factor
        return x
    # radial: |X| itself, then a direction
    if d.kind == "rademacher":
        return _sphere_directions(rng, shape, d.space)
    if d.kind == "pareto_symmetric":
        # the one-sided magnitude, so no sign is drawn only to be dropped
        mag = _pareto_tail(d.alpha, rng.random(shape))
    else:
        mag = np.abs(_scalar_draws(d, rng, shape))
    dirs = _sphere_directions(rng, shape, d.space)
    dirs *= mag[..., None]
    return dirs


def _budget_draws(count: int, dim: int) -> list[int]:
    """The sizes of successive draws of count vectors, each at most _BUDGET_ELEMENTS // dim."""
    step = max(1, _BUDGET_ELEMENTS // dim)
    return [min(step, count - start) for start in range(0, count, step)]


def sample(d: DistributionSpec, k: StreamKey, count: int) -> np.ndarray:
    """count i.i.d. draws from d as an array of shape (count, dim)."""
    if count < 0:
        raise ConfigurationError(f"count must be nonnegative, got {count}")
    return draw(d, k.generator(), count)


def uniform_in_ball(space: SpaceSpec, radius: float, k: StreamKey, count: int) -> np.ndarray:
    """count points uniform in the closed l_q ball of the given radius.

    Direction uniform on the unit sphere, radius scaled by U**(1/dim);
    handy for generating fixed-vector inputs that satisfy a norm cap.
    """
    if radius <= 0:
        raise ConfigurationError(f"radius must be positive, got {radius}")
    rng = k.generator()
    dirs = _sphere_directions(rng, (count,), space)
    radii = radius * rng.random(count) ** (1.0 / space.dim)
    return dirs * radii[:, None]


def is_symmetric(d: DistributionSpec) -> bool:
    """True when the law of -X provably equals the law of X."""
    if d.kind in _SYMMETRIC_KINDS:
        return True
    if d.kind == "point_mass":
        return all(c == 0.0 for c in d.v)
    if d.kind == "shifted":
        return all(c == 0.0 for c in d.shift) and is_symmetric(d.base)
    # one-sided Pareto: the radial lifting symmetrizes it
    return d.lifting == "radial"


def _scalar_abs_tail(d: DistributionSpec, t: float) -> float | None:
    """P(|X| > t) for the scalar law, closed form where known."""
    if t < 0:
        return 1.0
    k = d.kind
    if k == "rademacher":
        return 1.0 if t < 1.0 else 0.0
    if k in ("pareto_symmetric", "pareto_one_sided"):
        return min(1.0, t ** (-d.alpha)) if t > 0 else 1.0
    if k == "uniform_ball":
        return max(0.0, 1.0 - t / d.radius)
    if k == "stable_symmetric":
        if d.alpha == 1.0:
            return 1.0 - 2.0 * math.atan(t) / math.pi
        if d.alpha == 2.0:
            return math.erfc(t / 2.0)
        return None
    return None


def tail_prob(d: DistributionSpec, t: float) -> float | None:
    """P(||X|| > t) in closed form, or None when only MC is available.

    Available whenever the norm of a draw has the law of |scalar draw|
    (scalar and radial liftings), for point masses, and for shifted
    scalar laws with closed-form base CDFs.
    """
    if d.kind == "point_mass":
        return 1.0 if norm(np.asarray(d.v), d.space) > t else 0.0
    if d.kind == "shifted":
        if d.space.dim != 1:
            return None
        c = d.shift[0]
        # P(|Y + c| > t) = 1 - P(-t - c <= Y <= t - c)
        mass = _scalar_mass(d.base, -t - c, t - c)
        return None if mass is None else 1.0 - mass
    if d.lifting in ("scalar", "radial"):
        return _scalar_abs_tail(d, t)
    return None


def _scalar_mass(d: DistributionSpec, lo: float, hi: float) -> float | None:
    """P(lo <= X <= hi) for the scalar law, closed form or None; an atom on an edge lies inside."""
    if hi < lo:
        return 0.0
    if d.kind == "rademacher":
        return 0.5 * ((lo <= -1.0 <= hi) + (lo <= 1.0 <= hi))
    cdf = _scalar_cdf(d)
    return None if cdf is None else max(0.0, cdf(hi) - cdf(lo))


def _scalar_cdf(d: DistributionSpec):
    """CDF t -> P(X <= t) of a scalar law without atoms, or None."""
    k = d.kind
    if k == "pareto_one_sided":
        a = d.alpha
        return lambda t: 0.0 if t < 1 else 1.0 - t ** (-a)
    if k == "pareto_symmetric":
        a = d.alpha

        def cdf(t):
            if t <= -1:
                return 0.5 * (-t) ** (-a)
            if t < 1:
                return 0.5
            return 1.0 - 0.5 * t ** (-a)

        return cdf
    if k == "uniform_ball":
        r = d.radius
        return lambda t: min(1.0, max(0.0, (t + r) / (2 * r)))
    if k == "stable_symmetric" and d.alpha == 1.0:
        return lambda t: 0.5 + math.atan(t) / math.pi
    if k == "stable_symmetric" and d.alpha == 2.0:
        return lambda t: 0.5 * math.erfc(-t / 2.0)
    return None


def _pareto_partial_mean(a: float, lo: float, hi: float) -> float:
    """E[X 1{lo <= X <= hi}] for the one-sided Pareto law of index a, support [1, inf)."""
    l = max(lo, 1.0)
    if hi < l:
        return 0.0
    if a == 1.0:
        return math.log(hi / l)
    return a / (a - 1.0) * (l ** (1.0 - a) - hi ** (1.0 - a))


def _scalar_partial_mean(d: DistributionSpec, lo: float, hi: float) -> float | None:
    """E[X 1{lo <= X <= hi}] for the scalar law, closed form or None."""
    if hi < lo:
        return 0.0
    k = d.kind
    if k == "rademacher":
        return 0.5 * ((lo <= 1.0 <= hi) - (lo <= -1.0 <= hi))
    if k == "pareto_one_sided":
        return _pareto_partial_mean(d.alpha, lo, hi)
    if k == "pareto_symmetric":
        # each half carries half the one-sided law, mirrored below zero; halving is exact
        pos = 0.5 * _pareto_partial_mean(d.alpha, lo, hi) if hi >= 1.0 else 0.0
        neg = -(0.5 * _pareto_partial_mean(d.alpha, -hi, -lo)) if lo <= -1.0 else 0.0
        return pos + neg
    if k == "uniform_ball":
        r = d.radius
        l, h = max(lo, -r), min(hi, r)
        if h < l:
            return 0.0
        return (h * h - l * l) / (4.0 * r)
    return None


def truncated_mean(d: DistributionSpec, bound: float) -> np.ndarray | None:
    """E[X 1{||X|| <= bound}] in closed form, or None.

    Zero for every provably symmetric spec; explicit for point masses,
    one-dimensional Pareto and uniform laws, and shifts of those.
    """
    dim = d.space.dim
    if is_symmetric(d):
        return np.zeros(dim)
    if d.kind == "point_mass":
        v = np.asarray(d.v, dtype=float)
        return v if norm(v, d.space) <= bound else np.zeros(dim)
    if bound < 0:
        return np.zeros(dim)
    if d.kind == "shifted" and dim == 1:
        c = d.shift[0]
        # E[(Y + c) 1{-bound - c <= Y <= bound - c}], both edges inside
        pm = _scalar_partial_mean(d.base, -bound - c, bound - c)
        mass = _scalar_mass(d.base, -bound - c, bound - c)
        if pm is None or mass is None:
            return None
        return np.array([pm + c * mass])
    if dim == 1 and d.lifting == "scalar":
        pm = _scalar_partial_mean(d, -bound, bound)
        return None if pm is None else np.array([pm])
    return None
