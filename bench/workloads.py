"""The three benchmark workloads, built from a seed.

Each workload is a list of sumtails CLI configs that run one after
another in one process.  The seed goes into each config's `seed`, so it
fixes every random input: the sample paths, and for the exact workload
the random vectors and weights.  Why each workload exists is recorded
in NOTES.md next to this file.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

# The default t grid of thm11_i and contraction (scaled to the input
# vectors, so it cannot be given explicitly) has this many points.
DEFAULT_T_POINTS = 50
T_GRID = {"start": 0.0, "stop": 3.0, "points": 50}
LAMBDA_GRID = [0.25, 0.5, 1.0, 2.0]


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; FULL is what the benchmark measures, TINY is for smoke tests."""

    mc_R: int
    mc_n: tuple[int, int]
    cauchy_R: int
    cauchy_log2_n: int
    pareto_R: int
    pareto_log2_n: int
    exact_n: int
    levy_n: int


FULL = Sizes(
    mc_R=16_384,
    mc_n=(16, 256),
    cauchy_R=4_000,
    cauchy_log2_n=14,
    pareto_R=4_000,
    pareto_log2_n=12,
    exact_n=17,
    levy_n=12,
)
TINY = Sizes(
    mc_R=600,
    mc_n=(4, 16),
    cauchy_R=400,
    cauchy_log2_n=6,
    pareto_R=200,
    pareto_log2_n=5,
    exact_n=6,
    levy_n=5,
)


@dataclass(frozen=True)
class Workload:
    name: str
    configs: tuple  # CLI configs, run in order; each writes its own results.csv
    threads: int
    summands: int  # summand evaluations in one pass over all configs
    threshold_comparisons: int  # (statistic, threshold) comparisons, computed
    layers_called: frozenset  # span names predicted to have calls; all others must have none


def _power(n_max: int, exp_a: float, exp_b: float) -> dict:
    return {"kind": "power", "n_max": n_max, "exp_a": exp_a, "exp_b": exp_b}


def _space(dim: int, q) -> dict:
    return {"dim": dim, "q": q}


# (law, alpha, lifting, dim, q, which n): every lifting, q in {1, 2, inf}, both n
_MC_CASES = (
    ("pareto_symmetric", 0.8, "scalar", 1, 2, 0),
    ("pareto_symmetric", 0.8, "radial", 3, 2, 1),
    ("pareto_symmetric", 1.2, "radial", 3, 1, 0),
    ("pareto_symmetric", 1.2, "iid_coordinates", 2, "inf", 1),
    ("pareto_symmetric", 2.0, "iid_coordinates", 3, 2, 0),
    ("pareto_symmetric", 2.0, "scalar", 1, 2, 1),
    ("stable_symmetric", 1.5, "iid_coordinates", 2, 1, 0),
    ("stable_symmetric", 1.5, "radial", 2, "inf", 1),
)


def mc_symmetric_sweep(seed: int, sizes: Sizes = FULL) -> Workload:
    n_max = max(sizes.mc_n)
    configs = [
        {
            "experiment": "thm11_ii",
            "space": _space(dim, q),
            "distribution": {"kind": law, "alpha": alpha, "lifting": lifting},
            "norming": _power(n_max, 0.5, 1.0),
            "n": sizes.mc_n[which],
            "R": sizes.mc_R,
            "t_grid": T_GRID,
        }
        for law, alpha, lifting, dim, q, which in _MC_CASES
    ]
    sweep = {"schema_version": 1, "experiment": "sweep", "seed": seed, "configs": configs}
    ns = [c["n"] for c in configs]
    return Workload(
        name="mc_symmetric_sweep",
        configs=(sweep,),
        threads=min(2, usable_cpus()),
        summands=sizes.mc_R * sum(ns),
        threshold_comparisons=2 * sizes.mc_R * T_GRID["points"] * len(configs),
        layers_called=frozenset(
            {
                "sources.draw",
                "space.norms",
                "norming.interp",
                "transforms.rescale_factors",
                "estimator.mc_counts",
                "estimator.block",
                "estimator.clopper_pearson",
                "suite.checker",
                "cli.run",
            }
        ),
    )


def wlln_dichotomy(seed: int, sizes: Sizes = FULL) -> Workload:
    def grid(log2_n):
        return [2**k for k in range(1, log2_n + 1)]

    cauchy = {
        "schema_version": 1,
        "experiment": "wlln",
        "seed": seed,
        "space": _space(1, 2),
        "distribution": {"kind": "stable_symmetric", "alpha": 1.0},
        "norming": _power(2**sizes.cauchy_log2_n, 1.0, 1.0),
        "n_grid": grid(sizes.cauchy_log2_n),
        "lambda_grid": LAMBDA_GRID,
        "R": sizes.cauchy_R,
    }
    # no closed-form centering: gamma_n and the criterion come from Monte Carlo
    pareto = {
        "schema_version": 1,
        "experiment": "wlln",
        "seed": seed,
        "space": _space(2, 2),
        "distribution": {"kind": "pareto_one_sided", "alpha": 1.5, "lifting": "iid_coordinates"},
        "norming": _power(2**sizes.pareto_log2_n, 0.5, 1.0),
        "n_grid": grid(sizes.pareto_log2_n),
        "lambda_grid": LAMBDA_GRID,
        "R": sizes.pareto_R,
        "gamma_mode": "auto",
    }
    configs = (cauchy, pareto)
    return Workload(
        name="wlln_dichotomy",
        configs=configs,
        threads=1,
        summands=sum(c["R"] * c["n_grid"][-1] for c in configs),
        threshold_comparisons=sum(c["R"] * len(c["n_grid"]) * len(LAMBDA_GRID) for c in configs),
        layers_called=frozenset(
            {
                "sources.draw",
                "space.norms",
                "transforms.gamma_n",
                "estimator.mc_counts",
                "estimator.block",
                "estimator.clopper_pearson",
                "suite.checker",
                "cli.run",
            }
        ),
    )


_EXACT_SPACES = ((1, 2), (3, 2), (4, 1), (2, "inf"))


def exact_enumeration(seed: int, sizes: Sizes = FULL) -> Workload:
    n = sizes.exact_n
    vectors = {"random": {"count": n, "scale": 1.0}}
    configs = []
    for dim, q in _EXACT_SPACES:
        configs.append(
            {
                "experiment": "thm11_i",
                "space": _space(dim, q),
                "norming": _power(n, 0.5, 1.0),
                "vectors": vectors,
                "mode": "exact",
            }
        )
    for dim, q in _EXACT_SPACES:
        configs.append(
            {
                "experiment": "contraction",
                "space": _space(dim, q),
                "vectors": vectors,
                "weights": {"random": True},
                "mode": "exact",
            }
        )
    levy_n = sizes.levy_n
    configs.append(
        {
            "experiment": "levy",
            "space": _space(1, 2),
            "distribution": {"kind": "rademacher"},
            "n": levy_n,
            "mode": "exact",
            "t_grid": T_GRID,
        }
    )
    sweep = {"schema_version": 1, "experiment": "sweep", "seed": seed, "configs": configs}
    sign_configs = len(configs) - 1
    # two sides per comparison, each enumerating patterns x n summands
    summands = sign_configs * 2 * (2**n) * n + 2 * (3**levy_n) * levy_n
    comparisons = sign_configs * 2 * (2**n) * DEFAULT_T_POINTS + (3**levy_n) * T_GRID["points"]
    return Workload(
        name="exact_enumeration",
        configs=(sweep,),
        threads=1,
        summands=summands,
        threshold_comparisons=comparisons,
        layers_called=frozenset(
            {
                "space.norms",
                "norming.interp",
                "transforms.rescale_factors",
                "estimator.enumerate_sign_norms",
                "suite.checker",
                "cli.run",
            }
        ),
    )


WORKLOADS = {
    "mc_symmetric_sweep": mc_symmetric_sweep,
    "wlln_dichotomy": wlln_dichotomy,
    "exact_enumeration": exact_enumeration,
}
