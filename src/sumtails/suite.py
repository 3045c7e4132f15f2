"""Inequality checkers and the weak-law-of-large-numbers diagnostic.

Each checker evaluates both sides of one tail comparison, either by
exhaustive sign enumeration (the verdict is exact) or by paired Monte
Carlo on shared sample paths (a statistical check: verdicts carry
confidence bounds and an inconclusive middle ground).

The WLLN runner estimates P(||S_n - gamma_n|| / b_n > lambda) over a
grid of n and lambda, reports the criterion sequence n * P(||X|| > b_n),
and classifies the run as converges / bounded_away / undecided.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, _refuse_nan
from .estimator import (
    DEFAULT_BLOCK_SIZE,
    TailEstimate,
    _estimates,
    _require_block_size,
    _require_confidence,
    _require_enumerable,
    _require_threads,
    enumerate_sign_norms,
    mc_counts,
)
from .norming import FunctionPair, NormingPair, check_ratio_monotone
from .sources import (
    STREAM_CRITERION,
    STREAM_CRITERION_SYMM,
    _BUDGET_ELEMENTS,
    _MAX_R,
    DistributionSpec,
    StreamKey,
    _budget_norms,
    _random_signs,
    _require_stream,
    _workspace,
    draw,
    is_symmetric,
    tail_prob,
)
from .space import SpaceSpec, _summand_sums, norms
from .transforms import gamma_n, rescale_factors

__all__ = [
    "InequalityReport",
    "WllnDiagnostic",
    "CriterionPoint",
    "SymmetrizationCrossCheck",
    "check_thm11_i",
    "check_thm11_ii",
    "check_contraction",
    "check_levy",
    "run_wlln",
    "cross_check_symmetrization",
    "TAU_CONVERGES",
    "DELTA_BOUNDED_AWAY",
    "DEFAULT_LAMBDA_GRID",
    "LEVY_EXACT_MAX_N",
]

# branch-classification thresholds; tau < delta keeps the branches exclusive
TAU_CONVERGES = 0.02
DELTA_BOUNDED_AWAY = 0.05

DEFAULT_LAMBDA_GRID = (0.25, 0.5, 1.0, 2.0)
DEFAULT_T_POINTS = 50
# fallback t range for distribution-valued checks, where no finite
# sum of ||x_i|| exists to scale against
DEFAULT_T_STOP = 3.0
# the largest n whose 4^n sign pairs an int64 count holds
LEVY_EXACT_MAX_N = 31

# the weak-law runs' default replications for Monte Carlo gamma_n and criterion estimates
_AUX_R = 10**6


@dataclass(frozen=True)
class InequalityReport:
    """One tail comparison at one threshold t.

    rhs_bound = factor * rhs.p_hat + tail_weight * tail_term.p_hat is
    the claimed upper bound for lhs.p_hat; slack = rhs_bound - lhs.p_hat.
    verdict: 'violated' only when lhs.ci_low exceeds the bound's upper
    confidence limit; 'holds' when lhs.ci_high <= the bound's point
    value; 'inconclusive' otherwise (never in exact mode).
    sigma_margin = slack / (combined standard error), +-inf when exact.
    """

    name: str
    t: float
    lhs: TailEstimate
    rhs: TailEstimate
    factor: float
    tail_term: TailEstimate | None
    tail_weight: int
    rhs_bound: float
    rhs_bound_ci_high: float
    slack: float
    verdict: str
    sigma_margin: float
    config: dict


def _finish_report(name, t, lhs, rhs, factor, tail_term, tail_weight, config) -> InequalityReport:
    tp = tail_term.p_hat if tail_term is not None else 0.0
    th = tail_term.ci_high if tail_term is not None else 0.0
    bound = factor * rhs.p_hat + tail_weight * tp
    bound_hi = factor * rhs.ci_high + tail_weight * th
    slack = bound - lhs.p_hat
    if lhs.ci_low > bound_hi:
        verdict = "violated"
    elif lhs.ci_high <= bound:
        verdict = "holds"
    else:
        verdict = "inconclusive"
    se2 = lhs.std_error**2 + (factor * rhs.std_error) ** 2
    if tail_term is not None:
        se2 += (tail_weight * tail_term.std_error) ** 2
    se = math.sqrt(se2)
    if se > 0.0:
        sigma = slack / se
    else:
        sigma = math.inf if slack >= 0.0 else -math.inf
    return InequalityReport(
        name=name,
        t=float(t),
        lhs=lhs,
        rhs=rhs,
        factor=float(factor),
        tail_term=tail_term,
        tail_weight=int(tail_weight),
        rhs_bound=bound,
        rhs_bound_ci_high=bound_hi,
        slack=slack,
        verdict=verdict,
        sigma_margin=sigma,
        config=config,
    )


def _as_grid(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ConfigurationError(f"{name} must be a nonempty 1-d grid")
    if np.any(~np.isfinite(arr)) or np.any(arr < 0):
        raise ConfigurationError(f"{name} must be finite and nonnegative")
    return arr


def _t_grid(t_grid, default_stop: float) -> np.ndarray:
    if t_grid is None:
        return np.linspace(0.0, default_stop, DEFAULT_T_POINTS)
    return _as_grid(t_grid, "t_grid")


def _counts_per_threshold(stat: np.ndarray, thresholds) -> tuple[np.ndarray, int]:
    """How many entries of stat exceed each threshold, and how many are NaN.

    Counts exactly what the strict stat > t of every event in this
    package counts: ties do not exceed and NaN never does, which is why
    the NaN count comes back too.  stat is sorted once and each
    threshold found by binary search.
    """
    ordered = np.sort(stat)
    # NaN sorts last; the entries before the first NaN are the comparable ones
    valid = int(np.searchsorted(ordered, np.nan))
    at_most = np.searchsorted(ordered[:valid], thresholds, side="right")
    nan = stat.size - valid
    return valid - at_most, nan


def _mc_pass(name, statistics, per_rep, thresholds, R, key, block_size, threads):
    """Success counts of every statistic at every threshold over R replications.

    statistics(rng, m, ws) yields arrays holding one statistic of m
    replications each, then any ints to total over all blocks; ws is the
    sources._Workspace its arrays may go into.  per_rep is e, the
    float64 elements one replication holds at once in the block's draws,
    signs or running sums (README, Reproducibility).  Block i holds at
    most min(block_size, max(1, _BUDGET_ELEMENTS // e)) replications and
    draws whole from key.child(i), so no array grows with the block size.
    Returns the (statistics x thresholds) count matrix and the totals of
    those ints; a NaN statistic is refused, never skipped.
    """
    def block(rng, m):
        counts, extra, nan = [], [], 0
        with _workspace() as ws:
            for s in statistics(rng, m, ws):
                if isinstance(s, int):
                    extra.append(s)
                    continue
                c, s_nan = _counts_per_threshold(s, thresholds)
                counts.append(c)
                nan += s_nan
        return np.array(counts), np.array(extra, dtype=np.int64), nan

    rows = min(block_size, max(1, _BUDGET_ELEMENTS // per_rep))
    counts, extra, nan = mc_counts(block, R, key, block_size=rows, threads=threads)
    _refuse_nan(nan, len(counts) * R, name, "Monte Carlo")
    return counts, extra


def _require_mc(R, key, block_size, threads) -> None:
    """What a Monte Carlo pass needs before its first draw: the stream, R, the block size, the threads."""
    _require_stream(R, key)
    _require_block_size(block_size)
    _require_threads(threads)


def _report_config(space: SpaceSpec, d: DistributionSpec | None = None, **fields) -> dict:
    """A report's config: the law's kind and lifting if there is a law, the space, then fields."""
    law = {} if d is None else {"kind": d.kind, "lifting": d.lifting}
    return {**law, "dim": space.dim, "q": space.q, **fields}


def _compare(
    name, tg, factor, config, confidence, mode, R, key, block_size, threads,
    sides, per_rep, exact=None, tail=None, tail_weight=0,
):
    """Refuses a bad mode, confidence or Monte Carlo input, else returns the pass: a report per threshold.

    Exact mode takes exact(): the counts and NaN count of the lhs and of
    the rhs, as _counts_per_threshold returns them, and the number of
    equally likely outcomes.
    Monte Carlo runs sides, the lhs and rhs statistics and any ints, with
    per_rep elements per replication, through _mc_pass; tail(totals)
    turns the totals of those ints into the tail term, which the bound
    weighs by tail_weight.
    """
    if mode not in ("exact", "mc"):
        raise ConfigurationError(f"mode must be 'exact' or 'mc', got {mode!r}")
    _require_confidence(confidence)
    if mode == "mc":
        _require_mc(R, key, block_size, threads)

    def comparison():
        tail_term = None
        if mode == "exact":
            (lhs, nan_l), (rhs, nan_r), reps = exact()
            _refuse_nan(nan_l + nan_r, 2 * reps, name, "exact")
        else:
            (lhs, rhs), extra = _mc_pass(name, sides, per_rep, tg, R, key, block_size, threads)
            reps = R
            if tail is not None:
                tail_term = tail(extra)
        lhs_t = _estimates(lhs, reps, confidence, mode == "exact")
        rhs_t = _estimates(rhs, reps, confidence, mode == "exact")
        return [
            _finish_report(name, t, lt, rt, factor, tail_term, tail_weight, config)
            for t, lt, rt in zip(tg, lhs_t, rhs_t)
        ]

    return comparison


def _signed_comparison(
    name, u, u_scale, v, v_scale, space, tg, config, mode, R, key, confidence, block_size, threads
):
    """The pass of P(||sum R_i u_i|| > t u_scale) <= 2 P(||sum R_i v_i|| > t v_scale), R_i random signs.

    Exact mode enumerates the sign patterns of both sides, the half with
    eps_n = +1 counted twice; Monte Carlo draws them, one pattern
    serving both sides.
    """
    n = u.shape[0]
    if mode == "exact":
        _require_enumerable(n)

    def doubled(x, thresholds):
        # the patterns with eps_n = -1 repeat these norms, NaN included
        counts, nan = _counts_per_threshold(enumerate_sign_norms(x, space), thresholds)
        return 2 * counts, 2 * nan

    def exact():
        return doubled(u, tg * u_scale), doubled(v, tg * v_scale), 1 << n

    def sides(rng, m, ws):
        signs = _random_signs(rng, (m, n), ws("draws", (m, n)))
        return norms(signs @ u, space) / u_scale, norms(signs @ v, space) / v_scale

    # a replication holds n signs and two sums of dim coordinates
    return _compare(
        name, tg, 2.0, config, confidence, mode, R, key, block_size, threads, sides, max(n, space.dim), exact
    )


def _prepare_thm11_i(x, fp, space, t_grid, mode, R, key, confidence, block_size, threads):
    """check_thm11_i's input rules; returns its pass."""
    xa = np.atleast_2d(np.asarray(x, dtype=float))
    n = xa.shape[0]
    a_n, b_n = fp.pair.at(n)
    _require_ratio_monotone(fp.pair)
    xnorms = norms(xa, space)
    bad = np.nonzero(xnorms > b_n)[0]
    if bad.size:
        i = int(bad[0])
        raise ConfigurationError(
            f"hypothesis ||x_i|| <= b_n fails at i = {i + 1}: ||x|| = {xnorms[i]} > {b_n}"
        )
    t_vec = xa * rescale_factors(xnorms, fp)[:, None]
    tg = _t_grid(t_grid, 1.2 * float(np.sum(xnorms)) / b_n)
    config = _report_config(space, n=n, a_n=a_n, b_n=b_n, mode=mode)
    return _signed_comparison(
        "thm11_i", xa, b_n, t_vec, a_n, space, tg, config, mode, R, key, confidence, block_size, threads
    )


def check_thm11_i(
    x,
    fp: FunctionPair,
    space: SpaceSpec,
    t_grid=None,
    mode: str = "exact",
    R: int | None = None,
    key: StreamKey | None = None,
    confidence: float = 0.99,
    block_size: int = DEFAULT_BLOCK_SIZE,
    threads: int = 1,
) -> list[InequalityReport]:
    """P(||sum R_i x_i|| > t b_n) <= 2 P(||sum R_i T(x_i)|| > t a_n).

    The x_i are fixed vectors with ||x_i|| <= b_n for n = len(x); the
    hypothesis is checked and its violation rejected.  T(x_i) is x_i
    scaled to norm phi(psi_inverse(||x_i||)), with T(0) = 0.  Exact mode
    counts all 2^n sign patterns for both sides.
    """
    return _prepare_thm11_i(x, fp, space, t_grid, mode, R, key, confidence, block_size, threads)()


def _prepare_contraction(x, alpha_weights, space, t_grid, mode, R, key, confidence, block_size, threads):
    """check_contraction's input rules; returns its pass."""
    xa = np.atleast_2d(np.asarray(x, dtype=float))
    n = xa.shape[0]
    w = np.asarray(alpha_weights, dtype=float)
    if w.shape != (n,):
        raise ConfigurationError(f"alpha_weights must have length {n}")
    bad = np.nonzero(np.abs(w) > 1.0)[0]
    if bad.size:
        i = int(bad[0])
        raise ConfigurationError(f"|alpha_i| <= 1 fails at i = {i + 1}: alpha = {w[i]}")
    tg = _t_grid(t_grid, 1.2 * float(np.sum(norms(xa, space))))
    config = _report_config(space, n=n, mode=mode)
    # s / 1.0 and t * 1.0 are exact, so the unit scales change no count
    return _signed_comparison(
        "contraction", w[:, None] * xa, 1.0, xa, 1.0, space, tg, config, mode, R, key, confidence,
        block_size, threads,
    )


def check_contraction(
    x,
    alpha_weights,
    space: SpaceSpec,
    t_grid=None,
    mode: str = "exact",
    R: int | None = None,
    key: StreamKey | None = None,
    confidence: float = 0.99,
    block_size: int = DEFAULT_BLOCK_SIZE,
    threads: int = 1,
) -> list[InequalityReport]:
    """P(||sum a_i R_i x_i|| > t) <= 2 P(||sum R_i x_i|| > t), |a_i| <= 1."""
    return _prepare_contraction(
        x, alpha_weights, space, t_grid, mode, R, key, confidence, block_size, threads
    )()


def _require_ratio_monotone(pair: NormingPair) -> None:
    """Every comparison and the weak-law diagnostic assume b_n / a_n nondecreasing."""
    if not check_ratio_monotone(pair):
        raise ConfigurationError("b_n / a_n must be nondecreasing")


def _require_extension_safe(fp: FunctionPair) -> None:
    """The linear continuation must keep b/a nondecreasing too.

    Past N, psi / phi runs monotonically from b_N / a_N to its limit
    1 / fp.slope_ratio, so that limit must not lie below b_N / a_N.
    """
    pair = fp.pair
    _require_ratio_monotone(pair)
    if fp.slope_ratio * pair.b[-1] > (1.0 + 1e-12) * pair.a[-1]:
        raise ConfigurationError(
            "the continuation of the norming pair past N would make b/a decrease;"
            " enlarge the pair"
        )


def _prepare_thm11_ii(d, fp, n, t_grid, R, key, confidence, block_size, threads):
    """check_thm11_ii's input rules; returns its pass."""
    if not is_symmetric(d):
        raise ConfigurationError("the comparison requires a symmetric law; got a non-symmetric spec")
    a_n, b_n = fp.pair.at(n)
    _require_extension_safe(fp)
    space = d.space
    tg = _t_grid(t_grid, DEFAULT_T_STOP)
    analytic_tail = tail_prob(d, b_n)
    config = _report_config(space, d, n=n, a_n=a_n, b_n=b_n, R=R, mode="mc")

    def sides(rng, m, ws):
        v = draw(d, rng, ws("draws", (m, n, space.dim)))
        nv = norms(v, space, out=ws("norms", (m, n)))
        s_l = norms(_summand_sums(v), space) / b_n
        v *= rescale_factors(nv, fp, out=ws("factors", (m, n)))[..., None]  # now the rescaled T_i
        s_r = norms(_summand_sums(v), space) / a_n
        return s_l, s_r, int((nv > b_n).sum())

    def tail(exceed):
        if analytic_tail is not None:
            return TailEstimate.known(analytic_tail)
        return _estimates(exceed, R * n, confidence)[0]

    return _compare(
        "thm11_ii", tg, 4.0, config, confidence, "mc", R, key, block_size, threads,
        sides, n * space.dim, tail=tail, tail_weight=n,
    )


def check_thm11_ii(
    d: DistributionSpec,
    fp: FunctionPair,
    n: int,
    t_grid=None,
    R: int = 10**5,
    key: StreamKey | None = None,
    confidence: float = 0.99,
    block_size: int = DEFAULT_BLOCK_SIZE,
    threads: int = 1,
) -> list[InequalityReport]:
    """P(||sum V_i|| > t b_n) <= 4 P(||sum T_i|| > t a_n) + n P(||V|| > b_n).

    V_1..V_n i.i.d. symmetric, T_i the rescaled V_i; both sides share
    every sample path.  Draws with ||V|| beyond psi(N) ride the linear
    continuation of the function pair.  The per-summand tail term uses
    the closed form when the law has one, else the empirical frequency
    over all n * R draws.
    """
    return _prepare_thm11_ii(d, fp, n, t_grid, R, key, confidence, block_size, threads)()


def _prepare_levy(d, n, t_grid, R, key, b_n, mode, confidence, block_size, threads):
    """check_levy's input rules; returns its pass."""
    if n < 1:
        raise ConfigurationError(f"n must be >= 1, got {n}")
    if not 0 < b_n < math.inf:
        raise ConfigurationError(f"b_n must be positive and finite, got {b_n}")
    tg = _t_grid(t_grid, DEFAULT_T_STOP)
    space = d.space
    config = _report_config(space, d, n=n, b_n=b_n, mode=mode)
    if mode == "exact":
        if d.kind != "rademacher" or space.dim != 1:
            raise ConfigurationError("exact mode covers the scalar random-sign law only")
        if n > LEVY_EXACT_MAX_N:
            raise ConfigurationError(
                f"n = {n} exceeds the exact budget n <= {LEVY_EXACT_MAX_N}, where the"
                " 4^n sign pairs still fit an int64 count; use Monte Carlo"
            )

    def exact():
        thr = tg * b_n
        # the maximal difference is 0 in the 2^n of the 4^n sign pairs where every difference is, else 2
        lhs = np.where(2.0 > thr, 4**n - 2**n, 0)
        # each difference is -2, 0 or +2 from 1, 2 and 1 of the four sign
        # pairs, so the sign pairs giving S_n - S_n' = 2(j - n) number
        # the j-th coefficient of (1 + 2z + z^2)^n = (1 + z)^(2n)
        weights = np.array([math.comb(2 * n, j) for j in range(2 * n + 1)], dtype=np.int64)
        rhs = weights @ (np.abs(2.0 * np.arange(-n, n + 1))[:, None] > thr)
        return (lhs, 0), (rhs, 0), 4**n

    def sides(rng, m, ws):
        diff = draw(d, rng, ws("draws", (m, n, space.dim)))
        diff -= draw(d, rng, ws("draws2", (m, n, space.dim)))
        largest = norms(diff, space, out=ws("norms", (m, n))).max(axis=1)
        return largest / b_n, norms(_summand_sums(diff), space) / b_n

    # a replication holds X_1..X_n and X'_1..X'_n
    return _compare(
        "levy", tg, 2.0, config, confidence, mode, R, key, block_size, threads, sides, 2 * n * space.dim, exact
    )


def check_levy(
    d: DistributionSpec,
    n: int,
    t_grid=None,
    R: int = 10**5,
    key: StreamKey | None = None,
    b_n: float = 1.0,
    mode: str = "mc",
    confidence: float = 0.99,
    block_size: int = DEFAULT_BLOCK_SIZE,
    threads: int = 1,
) -> list[InequalityReport]:
    """P(max_i ||X_i - X_i'|| > t b_n) <= 2 P(||S_n - S_n'|| > t b_n).

    The differences X_i - X_i' are symmetric whatever d is.  Exact mode
    is available for the scalar random-sign law, where each difference
    takes values in {-2, 0, 2} with probabilities (1/4, 1/2, 1/4).  The
    exact counts out of the 4^n sign pairs come from the 2n + 1 values
    of S_n - S_n', each weighted by the pairs that give it, and from the
    2^n pairs whose maximal difference is 0.
    """
    return _prepare_levy(d, n, t_grid, R, key, b_n, mode, confidence, block_size, threads)()


@dataclass(frozen=True)
class CriterionPoint:
    """One value of the criterion sequence n * P(||X|| > b_n)."""

    n: int
    p: TailEstimate
    analytic: bool

    @property
    def value(self) -> float:
        return self.n * self.p.p_hat

    @property
    def ci_low(self) -> float:
        return self.n * self.p.ci_low

    @property
    def ci_high(self) -> float:
        return self.n * self.p.ci_high


@dataclass(frozen=True)
class WllnDiagnostic:
    """Estimates of P(||S_n - gamma_n|| / b_n > lambda) over a grid.

    estimates[i][j] matches n_grid[i] and lambda_grid[j]; criterion[i]
    carries n_grid[i] * P(||X|| > b_{n_grid[i]}).  classification is
    'converges' when at the largest n every lambda has ci_high <= tau;
    'bounded_away' when at the two largest n every lambda has
    ci_low >= delta; else 'undecided'.
    """

    config: dict
    n_grid: tuple
    lambda_grid: tuple
    estimates: tuple
    criterion: tuple
    gammas: tuple
    classification: str
    tau: float = TAU_CONVERGES
    delta: float = DELTA_BOUNDED_AWAY


def _classify(estimates, tau: float, delta: float) -> str:
    last = estimates[-1]
    if all(e.ci_high <= tau for e in last):
        return "converges"
    tail_rows = estimates[-2:] if len(estimates) >= 2 else estimates
    if all(e.ci_low >= delta for row in tail_rows for e in row):
        return "bounded_away"
    return "undecided"


def _default_n_grid(n_max: int) -> list[int]:
    out = []
    p = 2
    while p <= n_max:
        out.append(p)
        p *= 2
    return out or [n_max]


def _validate_n_grid(n_grid) -> list[int]:
    grid = [int(v) for v in n_grid]
    if not grid:
        raise ConfigurationError("n_grid must be nonempty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ConfigurationError("n_grid must be strictly increasing")
    return grid


def _criterion_points(
    d: DistributionSpec,
    n_grid: list[int],
    b_at: list[float],
    key: StreamKey,
    criterion_R: int,
    confidence: float,
    symmetrized: bool = False,
) -> tuple:
    """n * P(||X|| > b_n) along the grid, closed form when available.

    The symmetrized variant estimates the tail of ||X - X'|| instead;
    it always samples (no closed form is attempted).  A sampled sequence
    draws its criterion_R vectors through sources._budget_norms and adds
    up each draw's integer counts and NaN counts; a NaN is refused once
    all criterion_R are counted.
    """
    analytic_vals = [None if symmetrized else tail_prob(d, b_n) for b_n in b_at]
    if any(v is None for v in analytic_vals):
        stream = STREAM_CRITERION_SYMM if symmetrized else STREAM_CRITERION
        rng = key.substream(stream).generator()
        counts = np.zeros(len(b_at), dtype=np.int64)
        nan = 0
        for _, nx in _budget_norms(d, rng, criterion_R, symmetrized):
            part, part_nan = _counts_per_threshold(nx, b_at)
            counts += part
            nan += part_nan
        _refuse_nan(nan, criterion_R, "criterion sequence", "Monte Carlo")
        sampled = _estimates(counts, criterion_R, confidence)
    return tuple(
        CriterionPoint(n, TailEstimate.known(a), True) if a is not None else CriterionPoint(n, sampled[i], False)
        for i, (n, a) in enumerate(zip(n_grid, analytic_vals))
    )


def _prepare_wlln(
    symmetrized, d, pair, n_grid, lambda_grid, R, key, confidence, block_size, threads, gamma_mode,
    gamma_R, criterion_R,
):
    """The input rules of run_wlln and cross_check_symmetrization; returns their pass.

    The pass gives the centered diagnostic, then the symmetrized one
    when asked.  Each block (_mc_pass) runs all its summands; each chunk
    of summands draws X and then, when symmetrized, X' from the block's
    stream, and the chunk width divides _BUDGET_ELEMENTS among the
    block's running sums, so a draw holds at most that many elements
    unless one summand per sum already exceeds it.  These rules fix
    which draw lands in which replication and the order in which the
    sums add; changing any of them changes the results.
    """
    caller = "cross_check_symmetrization" if symmetrized else "run_wlln"
    _require_mc(R, key, block_size, threads)
    _require_confidence(confidence)
    if criterion_R < 1:
        raise ConfigurationError(f"criterion_R must be >= 1, got {criterion_R}")
    if criterion_R > _MAX_R:
        raise ConfigurationError(f"criterion_R must be <= 2^40, got {criterion_R}")
    _require_ratio_monotone(pair)
    grid = _default_n_grid(len(pair)) if n_grid is None else _validate_n_grid(n_grid)
    b_at = [pair.at(n)[1] for n in grid]
    lam = _as_grid(lambda_grid, "lambda_grid")
    if np.any(np.diff(lam) <= 0):
        raise ConfigurationError("lambda_grid must be strictly increasing")
    space = d.space
    dim = space.dim
    k = 2 if symmetrized else 1

    def diagnostics() -> list[WllnDiagnostic]:
        gammas = gamma_n(d, b_at, grid, mode=gamma_mode, R=gamma_R, key=key)
        criteria = [_criterion_points(d, grid, b_at, key, criterion_R, confidence)]
        if symmetrized:
            criteria.append(_criterion_points(d, grid, b_at, key, criterion_R, confidence, symmetrized=True))

        def statistics(rng, m, ws):
            # sums[0] runs S_n; sums[1], when symmetrized, runs the copy S_n'
            sums = ws("draws2", (k, m, dim))
            sums.fill(0.0)
            chunk = max(1, _BUDGET_ELEMENTS // (k * m * dim))
            prev = 0
            for n, gamma, b_n in zip(grid, gammas, b_at):
                need = n - prev
                while need > 0:
                    c = min(chunk, need)
                    for running in sums:
                        running += _summand_sums(draw(d, rng, ws("draws", (m, c, dim))))
                    need -= c
                yield norms(sums[0] - gamma, space) / b_n
                if symmetrized:
                    yield norms(sums[0] - sums[1], space) / b_n
                prev = n

        # a replication holds k running sums of dim coordinates
        counts, _ = _mc_pass(caller, statistics, k * dim, lam, R, key, block_size, threads)
        # rows run over n, and within each n over the variants
        counts = counts.reshape(len(grid), k, lam.size)
        config = _report_config(space, d, R=R, gamma_mode=gamma_mode)
        out = []
        for v, criterion in enumerate(criteria):
            cfg = dict(config, variant=("centered", "symmetrized")[v]) if symmetrized else config
            estimates = tuple(tuple(_estimates(row, R, confidence)) for row in counts[:, v])
            out.append(
                WllnDiagnostic(
                    config=cfg,
                    n_grid=tuple(grid),
                    lambda_grid=tuple(float(x) for x in lam),
                    estimates=estimates,
                    criterion=criterion,
                    gammas=tuple(gammas) if v == 0 else tuple(np.zeros(dim) for _ in grid),
                    classification=_classify(estimates, TAU_CONVERGES, DELTA_BOUNDED_AWAY),
                )
            )
        return out

    return diagnostics


def run_wlln(
    d: DistributionSpec,
    pair: NormingPair,
    n_grid=None,
    lambda_grid=DEFAULT_LAMBDA_GRID,
    R: int = 10**4,
    key: StreamKey | None = None,
    confidence: float = 0.99,
    block_size: int = DEFAULT_BLOCK_SIZE,
    threads: int = 1,
    gamma_mode: str = "auto",
    gamma_R: int = _AUX_R,
    criterion_R: int = _AUX_R,
) -> WllnDiagnostic:
    """Estimate the normalized-sum tails and classify the branch.

    Partial sums accumulate incrementally across the sorted n grid, so
    one pass of R replications serves every grid point; the marginal
    law at each n is exact.  gamma_n and the criterion sequence come
    from closed forms when the law has them, else from substreams
    disjoint from the experiment paths.
    """
    return _prepare_wlln(
        False, d, pair, n_grid, lambda_grid, R, key, confidence,
        block_size, threads, gamma_mode, gamma_R, criterion_R,
    )()[0]


@dataclass(frozen=True)
class SymmetrizationCrossCheck:
    """Paired diagnostics for S_n - gamma_n and for S_n - S_n'."""

    plain: WllnDiagnostic
    symmetrized: WllnDiagnostic
    classifications_agree: bool


def cross_check_symmetrization(
    d: DistributionSpec,
    pair: NormingPair,
    n_grid=None,
    lambda_grid=DEFAULT_LAMBDA_GRID,
    R: int = 10**4,
    key: StreamKey | None = None,
    confidence: float = 0.99,
    block_size: int = DEFAULT_BLOCK_SIZE,
    threads: int = 1,
    gamma_mode: str = "auto",
    gamma_R: int = _AUX_R,
    criterion_R: int = _AUX_R,
) -> SymmetrizationCrossCheck:
    """Run the centered and the symmetrized diagnostics on shared paths.

    Per replication the primary stream supplies X_1..X_n and the copy
    draws interleave from the same stream, so the two diagnostics see
    coupled paths; their branch classifications are compared.
    """
    plain, symm = _prepare_wlln(
        True, d, pair, n_grid, lambda_grid, R, key, confidence,
        block_size, threads, gamma_mode, gamma_R, criterion_R,
    )()
    return SymmetrizationCrossCheck(
        plain=plain,
        symmetrized=symm,
        classifications_agree=plain.classification == symm.classification,
    )
