"""Output checks on the results.csv files a workload writes.

A check never compares against pinned digests or pinned values that a
change of random streams would move; it checks what must hold for any
seed: row counts, verdicts, finiteness, and for the Cauchy law the
closed-form tail.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path
from statistics import NormalDist

from workloads import DEFAULT_T_POINTS

INEQ_NUMERIC = (
    "t", "n", "lhs_p", "lhs_ci_low", "lhs_ci_high", "rhs_p", "rhs_ci_low", "rhs_ci_high",
    "factor", "tail_p", "tail_ci_high", "tail_weight", "rhs_bound", "rhs_bound_ci_high",
    "slack", "sigma_margin",
)
WLLN_NUMERIC = (
    "n", "lambda", "p_hat", "ci_low", "ci_high",
    "criterion_value", "criterion_ci_low", "criterion_ci_high",
)
# each Cauchy estimate must lie this many standard errors from the truth;
# the z grows with the estimate count so that a correct run fails at most
# about once in 10^4 runs (Bonferroni), and is never below 3
CAUCHY_FAMILY_ALPHA = 1e-4


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def expected_rows(cfg: dict) -> int:
    """Rows one inequality or wlln config must produce, from its own grids."""
    if cfg["experiment"] == "wlln":
        return len(cfg["n_grid"]) * len(cfg["lambda_grid"])
    if "t_grid" in cfg:
        return cfg["t_grid"]["points"]
    return DEFAULT_T_POINTS


def _number(row: dict, col: str, problems: list[str], where: str, allow_inf=False, allow_empty=False):
    raw = row[col]
    if raw == "" and allow_empty:
        return None
    try:
        v = float(raw)
    except ValueError:
        problems.append(f"{where}: {col} = {raw!r} is not a number")
        return None
    if math.isnan(v) or (math.isinf(v) and not allow_inf):
        problems.append(f"{where}: {col} = {raw}")
    return v


def _check_ineq_row(row: dict, where: str, problems: list[str]) -> None:
    exact = row["exact"] == "true"
    values = {}
    for col in INEQ_NUMERIC:
        values[col] = _number(
            row, col, problems, where,
            allow_inf=col == "sigma_margin",
            allow_empty=col in ("tail_p", "tail_ci_high"),
        )
    sigma = values["sigma_margin"]
    if sigma is not None and math.isinf(sigma) and not exact:
        # a Monte Carlo row has zero standard error only when both sampled
        # sides are degenerate (every replication agreed)
        degenerate = values["lhs_p"] in (0.0, 1.0) and values["rhs_p"] in (0.0, 1.0)
        slack = values["slack"]
        if not degenerate or slack is None or (sigma > 0) != (slack >= 0):
            problems.append(f"{where}: sigma_margin = {row['sigma_margin']} on a Monte Carlo row")
    if exact and row["verdict"] != "holds":
        problems.append(f"{where}: exact row has verdict {row['verdict']}")
    if row["verdict"] == "violated":
        problems.append(f"{where}: Monte Carlo row is violated")


def _is_cauchy_over_n(cfg: dict) -> bool:
    dist = cfg["distribution"]
    norming = cfg["norming"]
    return (
        dist["kind"] == "stable_symmetric"
        and dist["alpha"] == 1.0
        and cfg["space"]["dim"] == 1
        and norming["kind"] == "power"
        and norming["exp_b"] == 1.0
    )


def _check_cauchy(rows: list[dict], cfg: dict, where: str, problems: list[str]) -> None:
    """S_n / n is standard Cauchy for every n: P(|S_n/n| > lambda) = 1 - 2 atan(lambda)/pi."""
    if any(r["classification"] != "bounded_away" for r in rows):
        problems.append(f"{where}: Cauchy run classified {rows[0]['classification']}, not bounded_away")
    z = max(3.0, NormalDist().inv_cdf(1.0 - CAUCHY_FAMILY_ALPHA / (2 * max(1, len(rows)))))
    R = cfg["R"]
    for r in rows:
        lam = float(r["lambda"])
        truth = 1.0 - 2.0 * math.atan(lam) / math.pi
        sigma = math.sqrt(truth * (1.0 - truth) / R)
        if abs(float(r["p_hat"]) - truth) > z * sigma:
            problems.append(
                f"{where}: n = {r['n']}, lambda = {lam}: p_hat {r['p_hat']} is more than"
                f" {z:.2f} sigma from {truth:.6f}"
            )


def check_run(cfg: dict, exit_code: int, results_csv: Path) -> list[list[str]]:
    """Problems per sub-config of one CLI run (a sweep has several); [] entries pass."""
    subs = cfg["configs"] if cfg["experiment"] == "sweep" else [cfg]
    problems: list[list[str]] = [[] for _ in subs]
    if exit_code != 0:
        for p in problems:
            p.append(f"exit code {exit_code}")
    rows = read_rows(results_csv)
    by_config: dict[int, list[dict]] = {}
    for r in rows:
        by_config.setdefault(int(r["config_index"]), []).append(r)
    extra = set(by_config) - set(range(len(subs)))
    if extra:
        problems[0].append(f"rows for unknown config indices {sorted(extra)}")
    for i, sub in enumerate(subs):
        got = by_config.get(i, [])
        want = expected_rows(sub)
        if len(got) != want:
            problems[i].append(f"config {i}: {len(got)} rows, expected {want}")
        for j, row in enumerate(got):
            where = f"config {i} row {j}"
            if sub["experiment"] == "wlln":
                for col in WLLN_NUMERIC:
                    _number(row, col, problems[i], where)
            else:
                _check_ineq_row(row, where, problems[i])
        if sub["experiment"] == "wlln" and got and _is_cauchy_over_n(sub):
            _check_cauchy(got, sub, f"config {i}", problems[i])
    return problems
