"""Acceptance gate: the quantitative commitments of the package.

Each test checks one commitment end to end at its stated tolerance and
prints a single pass/fail line (visible with pytest -s, or in the
captured output of a failure).  Run this file alone with

    pytest -v tests/test_acceptance.py
"""

import json
import math
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from sumtails import cli
from sumtails.norming import NormingPair, build_function_pair, power_pair
from sumtails.sources import (
    StreamKey,
    pareto_symmetric,
    sample,
    stable_symmetric,
    tail_prob,
    uniform_in_ball,
)
from sumtails.space import SpaceSpec, norms
from sumtails.suite import (
    DEFAULT_LAMBDA_GRID,
    check_contraction,
    check_thm11_i,
    check_thm11_ii,
    run_wlln,
)

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
import csv_digests  # noqa: E402
from test_transforms import event_identity  # noqa: E402

MASTER = StreamKey(7270027)


def _line(num: int, label: str, ok: bool, detail: str = "") -> None:
    tail = f" ({detail})" if detail else ""
    print(f"[criterion {num:02d}] {label}: {'PASS' if ok else 'FAIL'}{tail}")


def _random_pair(rng: np.random.Generator, length: int) -> NormingPair:
    a = np.cumsum(rng.uniform(0.1, 1.0, length))
    r = np.cumsum(rng.uniform(0.0, 0.3, length)) + rng.uniform(0.5, 1.5)
    return NormingPair(a=a, b=a * r)


def _random_space(rng: np.random.Generator) -> SpaceSpec:
    return SpaceSpec(int(rng.integers(1, 5)), float(rng.choice([1.0, 2.0, np.inf])))


def criterion_01_configs():
    """(x, fp, space) of the 50 random check_thm11_i configs, n from 1 to 12."""
    rng = np.random.default_rng(101)
    for i in range(50):
        n = int(rng.integers(1, 13))
        space = _random_space(rng)
        pair = _random_pair(rng, n + int(rng.integers(0, 5)))
        x = uniform_in_ball(space, float(pair.b[n - 1]), MASTER.replication(i + 1), n)
        yield x, build_function_pair(pair), space


def criterion_02_configs():
    """(x, w, space) of the 50 random check_contraction configs, n from 1 to 12."""
    rng = np.random.default_rng(202)
    for i in range(50):
        n = int(rng.integers(1, 13))
        space = _random_space(rng)
        x = uniform_in_ball(space, float(rng.uniform(0.5, 3.0)), MASTER.replication(100 + i), n)
        yield x, rng.uniform(-1.0, 1.0, n), space


def test_criterion_01_exact_sign_comparison():
    # 50 random configs, full enumeration of both sides on 50-point
    # t grids: the factor-2 comparison holds at every point
    started = time.perf_counter()
    checked = 0
    for x, fp, space in criterion_01_configs():
        reports = check_thm11_i(x, fp, space)
        assert len(reports) == 50
        for r in reports:
            assert r.verdict == "holds", (r.config, r.t, r.lhs.p_hat, r.rhs_bound)
            checked += 1
    elapsed = time.perf_counter() - started
    ok = checked == 2500 and elapsed < 60.0
    _line(1, "exact factor-2 sign comparison", ok, f"{checked} grid points, {elapsed:.1f} s")
    assert elapsed < 60.0


def test_criterion_02_exact_contraction():
    # same sweep shape with random coefficients in [-1, 1]
    started = time.perf_counter()
    checked = 0
    for x, w, space in criterion_02_configs():
        reports = check_contraction(x, w, space)
        assert len(reports) == 50
        for r in reports:
            assert r.verdict == "holds", (r.config, r.t, r.lhs.p_hat, r.rhs_bound)
            checked += 1
    elapsed = time.perf_counter() - started
    ok = checked == 2500 and elapsed < 60.0
    _line(2, "exact contraction comparison", ok, f"{checked} grid points, {elapsed:.1f} s")
    assert elapsed < 60.0


def test_criterion_03_paired_monte_carlo_comparison():
    # 20 configs, a million paired replications each, 99% bounds:
    # no statistically significant violation anywhere
    started = time.perf_counter()
    laws = [
        pareto_symmetric(0.8),
        pareto_symmetric(1.2),
        pareto_symmetric(2.0),
        stable_symmetric(1.0),
        stable_symmetric(1.5),
    ]
    p_values = (1.0, 1.5, 2.0)
    n_values = (16, 64, 256)
    worst = math.inf
    rows = 0
    for i in range(20):
        d = laws[i % 5]
        p = p_values[i % 3]
        n = n_values[(i // 5) % 3]
        pair = power_pair(256, 1.0 / p, 1.0)
        fp = build_function_pair(pair)
        reports = check_thm11_ii(d, fp, n, R=10**6, key=MASTER.replication(200 + i), threads=4)
        for r in reports:
            assert r.verdict != "violated", (i, d.kind, d.alpha, p, n, r.t)
            worst = min(worst, r.sigma_margin)
            rows += 1
    elapsed = time.perf_counter() - started
    ok = elapsed < 600.0
    _line(
        3,
        "paired Monte Carlo comparison",
        ok,
        f"{rows} rows, min sigma margin {worst:.1f}, {elapsed:.0f} s",
    )
    assert elapsed < 600.0


def test_criterion_04_event_identity():
    # a million draws against each of ten norming families: the two
    # threshold events agree on every single sample
    rng = np.random.default_rng(404)
    total = 0
    for fam in range(10):
        pair = _random_pair(rng, 32)
        fp = build_function_pair(pair)
        space = _random_space(rng)
        n = int(rng.integers(1, 33))
        scale_v = float(rng.uniform(0.1, 3.0)) * float(pair.b[n - 1])
        draws = rng.standard_cauchy((1_000_000, space.dim)) * scale_v
        flags = event_identity(draws, fp, space, n)
        assert flags.all(), (fam, int((~flags).sum()))
        total += flags.size
    _line(4, "threshold event identity", True, f"{total} draws, zero mismatches")


def _fsums(vectors):
    """The coordinatewise math.fsum of a list of vectors."""
    return np.array([math.fsum(column) for column in vectors.T])


def test_criterion_05_desymmetrization_identity():
    # (total + flipped) / 2 equals the truncated sum to 1e-12 per
    # coordinate on 100000 random lists
    rng = np.random.default_rng(505)
    lists = 0
    worst = 0.0
    for batch in range(20):
        n = int(rng.integers(2, 17))
        dim = int(rng.integers(1, 4))
        space = SpaceSpec(dim, float(rng.choice([1.0, 2.0, np.inf])))
        arrs = rng.uniform(-50.0, 50.0, (5000, n, dim))
        thresholds = rng.uniform(0.0, 60.0, 5000)
        for i in range(5000):
            keep = norms(arrs[i], space) <= float(thresholds[i])
            total = _fsums(arrs[i])
            flipped = _fsums(np.where(keep, 1.0, -1.0)[:, None] * arrs[i])
            direct = _fsums(arrs[i][keep])
            err = float(np.max(np.abs((total + flipped) / 2.0 - direct)))
            assert err <= 1e-12, (batch, i, err)
            worst = max(worst, err)
            lists += 1
    _line(5, "desymmetrization half-sum identity", True, f"{lists} lists, max error {worst:.2e}")


def test_criterion_06_interpolant_construction():
    # 100 random prefixes of length 256: exact knots, nondecreasing
    # ratio on a 1e3-per-unit grid, inverse round trip to 1e-12
    rng = np.random.default_rng(606)
    grid = np.linspace(0.0, 256.0, 256_000 + 1)
    for trial in range(100):
        pair = _random_pair(rng, 256)
        fp = build_function_pair(pair)
        ns = np.arange(1, 257, dtype=float)
        assert np.array_equal(fp.phi(ns), pair.a)
        assert np.array_equal(fp.psi(ns), pair.b)
        # phi and psi are linear on [0, 1], so psi / phi at t = 0 adds nothing
        ratio = fp.psi(grid[1:]) / fp.phi(grid[1:])
        assert np.all(np.diff(ratio) >= -1e-12 * ratio.max()), trial
        s = rng.uniform(0.0, float(pair.b[-1]), 1000)
        back = fp.psi(fp.psi_inverse(s))
        assert np.all(np.abs(back - s) <= 1e-12 * np.maximum(s, 1e-300)), trial
    _line(6, "norming interpolant construction", True, "100 prefixes, N = 256")


def test_criterion_07a_convergence_branch_criterion_sequence():
    # symmetric Pareto tail index 2.5 with b_n = n^(2/3): the criterion
    # sequence is n * (n^(2/3))^(-2.5) = n^(-2/3) in closed form
    d = pareto_symmetric(2.5)
    for n in (2**10, 2**13, 2**14):
        b_n = float(n) ** (2.0 / 3.0)
        value = n * tail_prob(d, b_n)
        assert value == pytest.approx(float(n) ** (-2.0 / 3.0), rel=1e-12)
    at_13 = 2**13 * tail_prob(d, float(2**13) ** (2.0 / 3.0))
    assert at_13 == pytest.approx(0.0024607833005759264, rel=1e-12)
    _line(7, "convergence-branch criterion sequence", True, f"n^(-2/3); value {at_13:.6g} at n=2^13")


def test_criterion_07b_convergence_branch_classification():
    # the dichotomy holds in the limit (criterion n^(-2/3) -> 0), but at
    # n = 2^14 the partial sums are still CLT-dominated:
    # P(|S_n|/n^(2/3) > 0.25) ~ P(|Z| > 0.25 n^(1/6) / sqrt(5)) ~ 0.57,
    # far above tau = 0.02, so the run cannot classify as converges at
    # this scale; the assertion below records that gap honestly
    diag = run_wlln(
        pareto_symmetric(2.5),
        power_pair(2**14, 1.0 / 3.0, 2.0 / 3.0),
        R=10**5,
        key=MASTER.replication(700),
        threads=4,
    )
    last = [e.ci_high for e in diag.estimates[-1]]
    ok = diag.classification == "converges"
    _line(
        7,
        "convergence-branch classification at n=2^14",
        ok,
        f"classification {diag.classification}; ci_high at largest n "
        + ", ".join(f"{v:.4f}" for v in last),
    )
    assert diag.classification == "converges", (
        "tail criterion n^(-2/3) -> 0 guarantees convergence in the limit, but at "
        f"n = 2^14 the measured exceedance bounds are {last} against tau = {diag.tau}; "
        "the classification stays " + diag.classification + " at any feasible n"
    )


def test_criterion_08_divergence_branch():
    # Cauchy with b_n = n: S_n / n is standard Cauchy at every n, so
    # P(|S_n|/n > 1) = 1 - 2 arctan(1)/pi = 1/2 exactly; estimates at
    # n in {2^10, 2^12, 2^14} must sit within 3 sigma of the Cauchy CDF
    # oracle for every lambda, the classification must be bounded_away,
    # and n P(|X| > n) must approach 2/pi
    diag = run_wlln(
        stable_symmetric(1.0),
        power_pair(2**14, 1.0, 1.0),
        n_grid=[2**10, 2**12, 2**14],
        R=10**5,
        key=MASTER.replication(800),
        threads=4,
    )
    assert diag.classification == "bounded_away"
    lam_index = DEFAULT_LAMBDA_GRID.index(1.0)
    for row, n in zip(diag.estimates, diag.n_grid):
        for lam, est in zip(diag.lambda_grid, row):
            oracle = 1.0 - 2.0 * math.atan(lam) / math.pi
            se = max(est.std_error, math.sqrt(oracle * (1 - oracle) / est.replications))
            assert abs(est.p_hat - oracle) <= 3.0 * se, (n, lam, est.p_hat, oracle)
    at_one = diag.estimates[-1][lam_index]
    crit = diag.criterion[-1]
    assert crit.analytic
    assert abs(crit.value - 2.0 / math.pi) <= 1e-6
    _line(
        8,
        "divergence-branch classification",
        True,
        f"bounded_away; P at lambda=1 {at_one.p_hat:.4f} vs 0.5; criterion {crit.value:.6f}",
    )


def test_criterion_09_stable_generator():
    # empirical characteristic function against exp(-|t|^alpha) within
    # 4 / sqrt(R) at R = 1e6
    R = 10**6
    tol = 4.0 / math.sqrt(R)
    worst = 0.0
    for j, alpha in enumerate((1.0, 1.5, 2.0)):
        x = sample(stable_symmetric(alpha), MASTER.replication(900 + j), R)[:, 0]
        for t in (0.25, 0.5, 1.0, 2.0):
            err = abs(float(np.mean(np.cos(t * x))) - math.exp(-(t**alpha)))
            assert err <= tol, (alpha, t, err)
            worst = max(worst, err)
    _line(9, "stable generator characteristic function", True, f"max error {worst:.2e} <= {tol}")


def test_criterion_10_thread_count_determinism(tmp_path):
    # identical results.csv whatever --threads says, for both an
    # inequality run and a weak-law run
    ineq = {
        "schema_version": 1,
        "experiment": "levy",
        "seed": 4242,
        "space": {"dim": 1, "q": 2},
        "distribution": {"kind": "stable_symmetric", "alpha": 1.0},
        "n": 64,
        "R": 20_000,
    }
    wlln = {
        "schema_version": 1,
        "experiment": "wlln",
        "seed": 4242,
        "space": {"dim": 2, "q": 2},
        "distribution": {"kind": "pareto_symmetric", "alpha": 1.5, "lifting": "radial"},
        "norming": {"kind": "power", "n_max": 64, "exp_a": 0.5, "exp_b": 1.0},
        "R": 2000,
    }
    for name, cfg in (("ineq", ineq), ("wlln", wlln)):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(cfg))
        outs = []
        for threads in (1, 4):
            out = tmp_path / f"{name}_t{threads}"
            code = cli.main(
                ["run", "--config", str(p), "--threads", str(threads), "--out", str(out)]
            )
            assert code == 0
            outs.append((out / "results.csv").read_bytes())
        assert outs[0] == outs[1], name
    _line(10, "thread-count determinism", True, "results.csv byte-identical for 1 vs 4 threads")


@pytest.mark.parametrize("seed", [402, 403])
def test_criterion_11_golden_digests(seed):
    # seed 401 runs in the fast subset, tests/test_digests.py, which says what the digests cover
    names = sorted(csv_digests.WORKLOADS)
    problems = [p for name in names if (p := csv_digests.mismatch(csv_digests.GOLDEN, name, seed))]
    _line(11, f"results.csv bytes at seed {seed} match the golden digests", not problems)
    assert not problems, "\n".join(problems)
