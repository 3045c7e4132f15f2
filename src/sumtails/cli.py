"""Command-line orchestration.

Subcommands: run, construct, sweep, validate.  A single JSON config
document (schema_version 1) describes one experiment or a sweep of
them; flags override top-level scalars.  Each run writes results.csv,
summary.json, and manifest.json into the output directory; given the
same seed the CSV is byte-identical whatever --threads says.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigurationError, DomainError
from .norming import NormingPair, build_function_pair, power_pair
from .sources import (
    STREAM_VECTORS,
    DistributionSpec,
    StreamKey,
    uniform_in_ball,
)
from .space import SpaceSpec
from .suite import (
    DEFAULT_LAMBDA_GRID,
    check_contraction,
    check_levy,
    check_thm11_i,
    check_thm11_ii,
    run_wlln,
)

SCHEMA_VERSION = 1

_INEQ_EXPERIMENTS = ("thm11_i", "thm11_ii", "contraction", "levy")
_EXPERIMENTS = _INEQ_EXPERIMENTS + ("wlln", "construct", "sweep")

INEQ_COLUMNS = [
    "config_index",
    "experiment",
    "t",
    "n",
    "lhs_p",
    "lhs_ci_low",
    "lhs_ci_high",
    "rhs_p",
    "rhs_ci_low",
    "rhs_ci_high",
    "factor",
    "tail_p",
    "tail_ci_high",
    "tail_weight",
    "rhs_bound",
    "rhs_bound_ci_high",
    "slack",
    "sigma_margin",
    "verdict",
    "exact",
]

WLLN_COLUMNS = [
    "config_index",
    "experiment",
    "n",
    "lambda",
    "p_hat",
    "ci_low",
    "ci_high",
    "criterion_value",
    "criterion_ci_low",
    "criterion_ci_high",
    "criterion_analytic",
    "classification",
]

CONSTRUCT_COLUMNS = ["n", "a_n", "b_n", "ratio"]


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.17g}"
    return str(v)


def _path(parent: str, key: str) -> str:
    return f"{parent}.{key}" if parent else key


def _need(cfg: dict, key: str, parent: str):
    if key not in cfg:
        raise ConfigurationError(f"missing required key {_path(parent, key)}")
    return cfg[key]


def _as_int(v, path: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigurationError(f"{path}: expected an integer, got {v!r}")
    return v


def _as_number(v, path: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigurationError(f"{path}: expected a number, got {v!r}")
    return float(v)


def _as_str(v, path: str) -> str:
    if not isinstance(v, str):
        raise ConfigurationError(f"{path}: expected a string, got {v!r}")
    return v


def _as_dict(v, path: str) -> dict:
    if not isinstance(v, dict):
        raise ConfigurationError(f"{path}: expected an object, got {v!r}")
    return v


def _as_list(v, path: str) -> list:
    if not isinstance(v, list):
        raise ConfigurationError(f"{path}: expected an array, got {v!r}")
    return v


def _space_from(cfg: dict, parent: str) -> SpaceSpec:
    sc = _as_dict(_need(cfg, "space", parent), _path(parent, "space"))
    dim = _as_int(_need(sc, "dim", _path(parent, "space")), _path(parent, "space.dim"))
    q_raw = sc.get("q", 2)
    path_q = _path(parent, "space.q")
    if isinstance(q_raw, str):
        if q_raw not in ("inf", "Infinity"):
            raise ConfigurationError(f"{path_q}: expected a number >= 1 or 'inf', got {q_raw!r}")
        q = float("inf")
    else:
        q = _as_number(q_raw, path_q)
    try:
        return SpaceSpec(dim=dim, q=q)
    except ConfigurationError as e:
        raise ConfigurationError(f"{_path(parent, 'space')}: {e}") from None


def _dist_from(cfg: dict, space: SpaceSpec, parent: str) -> DistributionSpec:
    path = _path(parent, "distribution")
    dc = _as_dict(_need(cfg, "distribution", parent), path)
    return _dist_from_dict(dc, space, path)


def _dist_from_dict(dc: dict, space: SpaceSpec, path: str) -> DistributionSpec:
    kind = _as_str(_need(dc, "kind", path), f"{path}.kind")
    lifting = _as_str(dc.get("lifting", "scalar"), f"{path}.lifting")
    kwargs = {"kind": kind, "space": space, "lifting": lifting}
    if kind in ("pareto_symmetric", "pareto_one_sided", "stable_symmetric"):
        kwargs["alpha"] = _as_number(_need(dc, "alpha", path), f"{path}.alpha")
    elif kind == "uniform_ball":
        kwargs["radius"] = _as_number(_need(dc, "radius", path), f"{path}.radius")
    elif kind == "point_mass":
        v = _as_list(_need(dc, "v", path), f"{path}.v")
        kwargs["v"] = tuple(_as_number(c, f"{path}.v[{i}]") for i, c in enumerate(v))
    elif kind == "shifted":
        base = _as_dict(_need(dc, "base", path), f"{path}.base")
        shift = _as_list(_need(dc, "shift", path), f"{path}.shift")
        kwargs["base"] = _dist_from_dict(base, space, f"{path}.base")
        kwargs["shift"] = tuple(_as_number(c, f"{path}.shift[{i}]") for i, c in enumerate(shift))
        kwargs["lifting"] = kwargs["base"].lifting
    elif kind != "rademacher":
        raise ConfigurationError(f"{path}.kind: unknown distribution kind {kind!r}")
    try:
        return DistributionSpec(**kwargs)
    except ConfigurationError as e:
        raise ConfigurationError(f"{path}: {e}") from None


def _norming_from(cfg: dict, parent: str) -> NormingPair:
    path = _path(parent, "norming")
    nc = _as_dict(_need(cfg, "norming", parent), path)
    kind = _as_str(_need(nc, "kind", path), f"{path}.kind")
    try:
        if kind == "power":
            n_max = _as_int(_need(nc, "n_max", path), f"{path}.n_max")
            exp_a = _as_number(_need(nc, "exp_a", path), f"{path}.exp_a")
            exp_b = _as_number(nc.get("exp_b", 1.0), f"{path}.exp_b")
            return power_pair(n_max, exp_a, exp_b)
        if kind == "explicit":
            a = _as_list(_need(nc, "a", path), f"{path}.a")
            b = _as_list(_need(nc, "b", path), f"{path}.b")
            return NormingPair(a=np.asarray(a, dtype=float), b=np.asarray(b, dtype=float))
    except (ConfigurationError, DomainError) as e:
        raise ConfigurationError(f"{path}: {e}") from None
    raise ConfigurationError(f"{path}.kind: expected 'power' or 'explicit', got {kind!r}")


def _grid_from(raw, path: str) -> np.ndarray:
    if isinstance(raw, list):
        return np.asarray([_as_number(v, f"{path}[{i}]") for i, v in enumerate(raw)])
    gc = _as_dict(raw, path)
    start = _as_number(gc.get("start", 0.0), f"{path}.start")
    stop = _as_number(_need(gc, "stop", path), f"{path}.stop")
    points = _as_int(_need(gc, "points", path), f"{path}.points")
    if points < 1:
        raise ConfigurationError(f"{path}.points: must be >= 1")
    return np.linspace(start, stop, points)


def _vector_count(cfg: dict, parent: str) -> int:
    path = _path(parent, "vectors")
    raw = _need(cfg, "vectors", parent)
    if isinstance(raw, list):
        if not raw:
            raise ConfigurationError(f"{path}: must be nonempty")
        return len(raw)
    rc = _as_dict(raw, path)
    rnd = _as_dict(_need(rc, "random", path), f"{path}.random")
    count = _as_int(_need(rnd, "count", f"{path}.random"), f"{path}.random.count")
    if count < 1:
        raise ConfigurationError(f"{path}.random.count: must be >= 1")
    return count


def _vectors_from(cfg: dict, space: SpaceSpec, radius_cap: float, key: StreamKey, parent: str):
    path = _path(parent, "vectors")
    raw = cfg["vectors"]
    if isinstance(raw, list):
        arr = np.asarray(
            [
                [_as_number(c, f"{path}[{i}][{j}]") for j, c in enumerate(_as_list(row, f"{path}[{i}]"))]
                for i, row in enumerate(raw)
            ],
            dtype=float,
        )
        if arr.ndim != 2 or arr.shape[1] != space.dim:
            raise ConfigurationError(f"{path}: vectors must all have {space.dim} coordinates")
        return arr
    rnd = raw["random"]
    count = rnd["count"]
    scale = _as_number(rnd.get("scale", 1.0), f"{path}.random.scale")
    if not (0 < scale <= 1.0):
        raise ConfigurationError(f"{path}.random.scale: must lie in (0, 1]")
    return uniform_in_ball(space, scale * radius_cap, key.substream(STREAM_VECTORS), count)


def _weights_from(cfg: dict, n: int, key: StreamKey, parent: str) -> np.ndarray:
    path = _path(parent, "weights")
    raw = _need(cfg, "weights", parent)
    if isinstance(raw, list):
        w = np.asarray([_as_number(v, f"{path}[{i}]") for i, v in enumerate(raw)])
        if w.size != n:
            raise ConfigurationError(f"{path}: expected {n} weights, got {w.size}")
        return w
    rc = _as_dict(raw, path)
    if rc.get("random") is not True:
        raise ConfigurationError(f'{path}: expected an array or {{"random": true}}')
    rng = key.substream(STREAM_VECTORS).replication(1).generator()
    return rng.uniform(-1.0, 1.0, n)


def _report_row(index: int, rpt) -> dict:
    has_tail = rpt.tail_term is not None
    return {
        "config_index": index,
        "experiment": rpt.name,
        "t": rpt.t,
        "n": rpt.config.get("n", ""),
        "lhs_p": rpt.lhs.p_hat,
        "lhs_ci_low": rpt.lhs.ci_low,
        "lhs_ci_high": rpt.lhs.ci_high,
        "rhs_p": rpt.rhs.p_hat,
        "rhs_ci_low": rpt.rhs.ci_low,
        "rhs_ci_high": rpt.rhs.ci_high,
        "factor": rpt.factor,
        "tail_p": rpt.tail_term.p_hat if has_tail else "",
        "tail_ci_high": rpt.tail_term.ci_high if has_tail else "",
        "tail_weight": rpt.tail_weight,
        "rhs_bound": rpt.rhs_bound,
        "rhs_bound_ci_high": rpt.rhs_bound_ci_high,
        "slack": rpt.slack,
        "sigma_margin": rpt.sigma_margin,
        "verdict": rpt.verdict,
        "exact": rpt.lhs.exact,
    }


def _mode_and_r(cfg: dict, parent: str, default_mode: str):
    mode = _as_str(cfg.get("mode", default_mode), _path(parent, "mode"))
    R = None
    if mode == "mc":
        R = _as_int(_need(cfg, "R", parent), _path(parent, "R"))
    return mode, R


def _run_inequality(cfg: dict, index: int, seed: int, threads: int, confidence: float, parent: str):
    experiment = _as_str(_need(cfg, "experiment", parent), _path(parent, "experiment"))
    key = StreamKey(master_seed=(seed + index) % 2**64)
    block_size = _as_int(cfg.get("block_size", 4096), _path(parent, "block_size"))
    t_grid = _grid_from(cfg["t_grid"], _path(parent, "t_grid")) if "t_grid" in cfg else None

    if experiment == "thm11_i":
        space = _space_from(cfg, parent)
        pair = _norming_from(cfg, parent)
        fp = build_function_pair(pair)
        count = _vector_count(cfg, parent)
        if count > len(pair):
            raise ConfigurationError(
                f"{_path(parent, 'vectors')}: n = {count} exceeds norming length {len(pair)}"
            )
        b_n = float(pair.b[count - 1])
        x = _vectors_from(cfg, space, b_n, key, parent)
        mode, R = _mode_and_r(cfg, parent, "exact")
        reports = check_thm11_i(
            x, fp, space, t_grid=t_grid, mode=mode, R=R, key=key,
            confidence=confidence, block_size=block_size, threads=threads,
        )
    elif experiment == "contraction":
        space = _space_from(cfg, parent)
        count = _vector_count(cfg, parent)
        radius_cap = _as_number(cfg.get("vector_scale", 1.0), _path(parent, "vector_scale"))
        x = _vectors_from(cfg, space, radius_cap, key, parent)
        w = _weights_from(cfg, count, key, parent)
        mode, R = _mode_and_r(cfg, parent, "exact")
        reports = check_contraction(
            x, w, space, t_grid=t_grid, mode=mode, R=R, key=key,
            confidence=confidence, block_size=block_size, threads=threads,
        )
    elif experiment == "thm11_ii":
        space = _space_from(cfg, parent)
        d = _dist_from(cfg, space, parent)
        pair = _norming_from(cfg, parent)
        fp = build_function_pair(pair)
        n = _as_int(_need(cfg, "n", parent), _path(parent, "n"))
        R = _as_int(_need(cfg, "R", parent), _path(parent, "R"))
        reports = check_thm11_ii(
            d, fp, n, t_grid=t_grid, R=R, key=key,
            confidence=confidence, block_size=block_size, threads=threads,
        )
    elif experiment == "levy":
        space = _space_from(cfg, parent)
        d = _dist_from(cfg, space, parent)
        n = _as_int(_need(cfg, "n", parent), _path(parent, "n"))
        b_n = _as_number(cfg.get("b_n", 1.0), _path(parent, "b_n"))
        mode, R = _mode_and_r(cfg, parent, "mc")
        reports = check_levy(
            d, n, t_grid=t_grid, R=R if R is not None else 10**5, key=key, b_n=b_n,
            mode=mode, confidence=confidence, block_size=block_size, threads=threads,
        )
    else:
        raise ConfigurationError(
            f"{_path(parent, 'experiment')}: expected one of {_INEQ_EXPERIMENTS}, got {experiment!r}"
        )
    rows = [_report_row(index, r) for r in reports]
    verdicts: dict[str, int] = {}
    for r in reports:
        verdicts[r.verdict] = verdicts.get(r.verdict, 0) + 1
    summary = {
        "experiment": experiment,
        "rows": len(rows),
        "verdicts": verdicts,
        "min_sigma_margin": min((r.sigma_margin for r in reports), default=float("inf")),
        "min_slack": min((r.slack for r in reports), default=float("inf")),
    }
    return rows, summary, any(r.verdict == "violated" for r in reports)


def _run_wlln_config(cfg: dict, index: int, seed: int, threads: int, confidence: float, parent: str):
    space = _space_from(cfg, parent)
    d = _dist_from(cfg, space, parent)
    pair = _norming_from(cfg, parent)
    key = StreamKey(master_seed=(seed + index) % 2**64)
    n_grid = None
    if "n_grid" in cfg:
        n_grid = [
            _as_int(v, f"{_path(parent, 'n_grid')}[{i}]")
            for i, v in enumerate(_as_list(cfg["n_grid"], _path(parent, "n_grid")))
        ]
    lambda_grid = DEFAULT_LAMBDA_GRID
    if "lambda_grid" in cfg:
        lambda_grid = _grid_from(cfg["lambda_grid"], _path(parent, "lambda_grid"))
    R = _as_int(_need(cfg, "R", parent), _path(parent, "R"))
    block_size = _as_int(cfg.get("block_size", 4096), _path(parent, "block_size"))
    gamma_mode = _as_str(cfg.get("gamma_mode", "auto"), _path(parent, "gamma_mode"))
    diag = run_wlln(
        d, pair, n_grid=n_grid, lambda_grid=lambda_grid, R=R, key=key,
        confidence=confidence, block_size=block_size, threads=threads, gamma_mode=gamma_mode,
    )
    rows = []
    for i, n in enumerate(diag.n_grid):
        cp = diag.criterion[i]
        for j, lam in enumerate(diag.lambda_grid):
            e = diag.estimates[i][j]
            rows.append(
                {
                    "config_index": index,
                    "experiment": "wlln",
                    "n": n,
                    "lambda": lam,
                    "p_hat": e.p_hat,
                    "ci_low": e.ci_low,
                    "ci_high": e.ci_high,
                    "criterion_value": cp.value,
                    "criterion_ci_low": cp.ci_low,
                    "criterion_ci_high": cp.ci_high,
                    "criterion_analytic": cp.analytic,
                    "classification": diag.classification,
                }
            )
    summary = {
        "experiment": "wlln",
        "rows": len(rows),
        "classification": diag.classification,
        "criterion_at_max_n": diag.criterion[-1].value,
        "tau": diag.tau,
        "delta": diag.delta,
    }
    return rows, summary, False


def _run_construct(cfg: dict, parent: str):
    pair = _norming_from(cfg, parent)
    rows = [
        {
            "n": i + 1,
            "a_n": float(pair.a[i]),
            "b_n": float(pair.b[i]),
            "ratio": float(pair.b[i] / pair.a[i]),
        }
        for i in range(len(pair))
    ]
    summary = {"experiment": "construct", "rows": len(rows), "length": len(pair)}
    return rows, summary, False


def validate_config(cfg: dict) -> str:
    """Structural validation; returns the experiment kind or raises."""
    if not isinstance(cfg, dict):
        raise ConfigurationError("config root: expected a JSON object")
    version = _as_int(_need(cfg, "schema_version", ""), "schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigurationError(f"schema_version: expected {SCHEMA_VERSION}, got {version}")
    experiment = _as_str(_need(cfg, "experiment", ""), "experiment")
    if experiment not in _EXPERIMENTS:
        raise ConfigurationError(f"experiment: expected one of {_EXPERIMENTS}, got {experiment!r}")
    if experiment == "sweep":
        configs = _as_list(_need(cfg, "configs", ""), "configs")
        if not configs:
            raise ConfigurationError("configs: must be a nonempty array")
        for i, sub in enumerate(configs):
            sub_d = _as_dict(sub, f"configs[{i}]")
            sub_exp = _as_str(_need(sub_d, "experiment", f"configs[{i}]"), f"configs[{i}].experiment")
            if sub_exp not in _INEQ_EXPERIMENTS:
                raise ConfigurationError(
                    f"configs[{i}].experiment: sweeps accept only {_INEQ_EXPERIMENTS}"
                )
    if experiment != "construct":
        if "seed" not in cfg:
            raise ConfigurationError(
                "missing required key seed (pass --seed or set it in the config;"
                " there is no wall-clock default)"
            )
        _as_int(cfg["seed"], "seed")
    return experiment


def run(config, seed=None, threads=None, out=None, confidence=None) -> int:
    """Execute a config (path or dict); returns the process exit code."""
    started = time.perf_counter()
    cfg = dict(config) if isinstance(config, dict) else _load_config(config)
    for key_name, override in (
        ("seed", seed),
        ("threads", threads),
        ("out", out),
        ("confidence", confidence),
    ):
        if override is not None:
            cfg[key_name] = override
    experiment = validate_config(cfg)
    threads_v = _as_int(cfg.get("threads", 1), "threads")
    if threads_v < 1:
        raise ConfigurationError(f"threads: must be >= 1, got {threads_v}")
    conf_v = _as_number(cfg.get("confidence", 0.99), "confidence")
    if not (0 < conf_v < 1):
        raise ConfigurationError(f"confidence: must lie in (0, 1), got {conf_v}")
    out_dir = Path(_as_str(cfg.get("out", "sumtails_out"), "out"))

    if experiment == "construct":
        rows, summary, violated = _run_construct(cfg, "")
        columns = CONSTRUCT_COLUMNS
        summaries = [summary]
    else:
        # a single config runs as a sweep of one: config index 0, key
        # seed + 0, and key paths without a configs[i] prefix
        seed_v = _as_int(cfg["seed"], "seed")
        runner, columns = _run_inequality, INEQ_COLUMNS
        if experiment == "wlln":
            runner, columns = _run_wlln_config, WLLN_COLUMNS
        sweep = experiment == "sweep"
        rows, summaries, violated = [], [], False
        for i, sub in enumerate(cfg["configs"] if sweep else [cfg]):
            sub_rows, sub_summary, sub_violated = runner(
                sub, i, seed_v, threads_v, conf_v, f"configs[{i}]" if sweep else ""
            )
            rows.extend(sub_rows)
            summaries.append(sub_summary)
            violated = violated or sub_violated

    exit_code = 1 if violated else 0
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / "results.csv", columns, rows)
    summary_doc = {
        "schema_version": SCHEMA_VERSION,
        "experiment": experiment,
        "configs": summaries,
        "total_rows": len(rows),
        "exit_code": exit_code,
    }
    with open(out_dir / "summary.json", "w") as fh:
        json.dump(summary_doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "tool": "sumtails",
        "version": __version__,
        "config": cfg,
        "wall_time_s": time.perf_counter() - started,
    }
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return exit_code


def _write_csv(path: Path, columns: list[str], rows: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row[c]) for c in columns])


def _load_config(config_path) -> dict:
    p = Path(config_path)
    if not p.exists():
        raise ConfigurationError(f"config file not found: {p}")
    try:
        with open(p) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as e:
        raise ConfigurationError(f"config is not valid JSON: {e}") from None
    if isinstance(doc, dict) and doc.get("tool") == "sumtails" and "config" in doc:
        # a manifest.json from an earlier run; re-run its embedded config
        doc = doc["config"]
    if not isinstance(doc, dict):
        raise ConfigurationError("config root: expected a JSON object")
    return doc


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, help="path to the JSON config (or a manifest.json)")
    p.add_argument("--seed", type=int, default=None, help="master seed override")
    p.add_argument("--threads", type=int, default=None, help="worker count (results do not depend on it)")
    p.add_argument("--out", default=None, help="output directory override")
    p.add_argument("--confidence", type=float, default=None, help="confidence level override")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sumtails",
        description=(
            "Tail-inequality and weak-law experiments for sums of independent"
            " symmetric random vectors"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, blurb in (
        ("run", "run the experiment described by the config"),
        ("construct", "tabulate a norming pair and its ratio"),
        ("sweep", "run a list of inequality configs"),
        ("validate", "check a config file and exit"),
    ):
        p = sub.add_parser(name, help=blurb)
        _add_common_flags(p)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config)
        if args.command == "validate":
            experiment = validate_config(cfg)
            print(f"ok: {experiment}")
            return 0
        if args.command in ("construct", "sweep"):
            cfg.setdefault("experiment", args.command)
            if cfg["experiment"] != args.command:
                raise ConfigurationError(
                    f"experiment: the {args.command} subcommand needs experiment ="
                    f" {args.command!r}, got {cfg['experiment']!r}"
                )
        return run(
            cfg,
            seed=args.seed,
            threads=args.threads,
            out=args.out,
            confidence=args.confidence,
        )
    except (ConfigurationError, DomainError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
