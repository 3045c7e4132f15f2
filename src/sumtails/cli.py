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
import math
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigurationError, DomainError
from .estimator import DEFAULT_BLOCK_SIZE, _require_enumerable
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
    _AUX_R,
    _prepare_contraction,
    _prepare_levy,
    _prepare_thm11_i,
    _prepare_thm11_ii,
    _prepare_wlln,
    check_contraction,
    check_levy,
    check_thm11_i,
    check_thm11_ii,
    run_wlln,
)
from .transforms import _gamma_mode

SCHEMA_VERSION = 1

_INEQ_EXPERIMENTS = ("thm11_i", "thm11_ii", "contraction", "levy")
_EXPERIMENTS = _INEQ_EXPERIMENTS + ("wlln", "construct", "sweep")

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


_REQUIRED = object()
_KIND_NAMES = {
    int: "an integer",
    float: "a number",
    str: "a string",
    dict: "an object",
    list: "an array",
}


def _check(v, path: str, kind):
    """v if it has the JSON type kind, else an error naming path.

    kind is int, float (any finite number, returned as a float), str,
    dict or list; [kind] is an array whose elements all have that kind.
    """
    if isinstance(kind, list):
        return [_check(e, f"{path}[{i}]", kind[0]) for i, e in enumerate(_check(v, path, list))]
    if isinstance(v, bool) or not isinstance(v, (int, float) if kind is float else kind):
        raise ConfigurationError(f"{path}: expected {_KIND_NAMES[kind]}, got {v!r}")
    if kind is not float:
        return v
    try:
        x = float(v)
    except OverflowError:  # a JSON integer past the float64 range
        raise ConfigurationError(
            f"{path}: expected a finite number, got an integer of {len(str(v))} digits"
        ) from None
    if not math.isfinite(x):
        raise ConfigurationError(f"{path}: expected a finite number, got {v!r}")
    return x


def _get(cfg: dict, parent: str, key: str, kind, default=_REQUIRED):
    """cfg[key] checked against kind; default when absent, or an error if required."""
    if key in cfg:
        return _check(cfg[key], _path(parent, key), kind)
    if default is _REQUIRED:
        raise ConfigurationError(f"missing required key {_path(parent, key)}")
    return default


def _build(path: str, make, *args, **kwargs):
    """make(*args, **kwargs) with its errors, which name no key path, prefixed by path.

    A MemoryError, from a size in the config too large to allocate,
    becomes such an error too.
    """
    try:
        return make(*args, **kwargs)
    except (ConfigurationError, DomainError, MemoryError) as e:
        if not path:
            raise
        raise ConfigurationError(f"{path}: {e}") from None


def _space_from(cfg: dict, parent: str) -> SpaceSpec:
    path = _path(parent, "space")
    sc = _get(cfg, parent, "space", dict)
    dim = _get(sc, path, "dim", int)
    q = sc.get("q", 2.0)
    # q = inf, the max norm, is the one infinite number a config may hold
    if q in ("inf", "Infinity", math.inf):
        q = math.inf
    elif isinstance(q, str):
        raise ConfigurationError(f"{path}.q: expected a number >= 1 or 'inf', got {q!r}")
    else:
        q = _check(q, f"{path}.q", float)
    return _build(path, SpaceSpec, dim=dim, q=q)


def _dist_from(cfg: dict, space: SpaceSpec, parent: str, key="distribution") -> DistributionSpec:
    path = _path(parent, key)
    dc = _get(cfg, parent, key, dict)
    kind = _get(dc, path, "kind", str)
    kwargs = {"kind": kind, "space": space, "lifting": _get(dc, path, "lifting", str, "scalar")}
    if kind in ("pareto_symmetric", "pareto_one_sided", "stable_symmetric"):
        kwargs["alpha"] = _get(dc, path, "alpha", float)
    elif kind == "uniform_ball":
        kwargs["radius"] = _get(dc, path, "radius", float)
    elif kind == "point_mass":
        kwargs["v"] = tuple(_get(dc, path, "v", [float]))
    elif kind == "shifted":
        if "lifting" in dc:
            raise ConfigurationError(
                f"{path}.lifting: a shifted law takes the lifting of its base;"
                f" set {path}.base.lifting instead"
            )
        kwargs["shift"] = tuple(_get(dc, path, "shift", [float]))
        kwargs["base"] = _dist_from(dc, space, path, "base")
        kwargs["lifting"] = kwargs["base"].lifting
    elif kind != "rademacher":
        raise ConfigurationError(f"{path}.kind: unknown distribution kind {kind!r}")
    return _build(path, DistributionSpec, **kwargs)


def _norming_from(cfg: dict, parent: str) -> NormingPair:
    path = _path(parent, "norming")
    nc = _get(cfg, parent, "norming", dict)
    kind = _get(nc, path, "kind", str)
    if kind == "power":
        n_max = _get(nc, path, "n_max", int)
        exp_a = _get(nc, path, "exp_a", float)
        return _build(path, power_pair, n_max, exp_a, _get(nc, path, "exp_b", float, 1.0))
    if kind == "explicit":
        a = np.asarray(_get(nc, path, "a", [float]))
        b = np.asarray(_get(nc, path, "b", [float]))
        return _build(path, NormingPair, a, b)
    raise ConfigurationError(f"{path}.kind: expected 'power' or 'explicit', got {kind!r}")


def _grid_from(cfg: dict, parent: str, key: str, default=None):
    """An array of numbers, or {start, stop, points} for a linspace."""
    if isinstance(cfg.get(key), list):
        return np.asarray(_get(cfg, parent, key, [float]))
    path = _path(parent, key)
    gc = _get(cfg, parent, key, dict, None)
    if gc is None:
        return default
    start = _get(gc, path, "start", float, 0.0)
    stop = _get(gc, path, "stop", float)
    points = _get(gc, path, "points", int)
    if points < 1:
        raise ConfigurationError(f"{path}.points: must be >= 1")
    return _build(path, np.linspace, start, stop, points)


def _vectors_from(cfg: dict, space: SpaceSpec, key: StreamKey, parent: str, radius_for, exact: bool):
    """The x_i as listed, or drawn uniformly in the ball of radius scale * radius_for(count).

    radius_for also vets the count, so it runs for listed vectors too.
    In exact mode a count past the enumeration budget is refused before
    any vector is drawn.
    """
    path = _path(parent, "vectors")
    if isinstance(cfg.get("vectors"), list):
        rows = _get(cfg, parent, "vectors", [[float]])
        if not rows:
            raise ConfigurationError(f"{path}: must be nonempty")
        radius_for(len(rows))
        if any(len(row) != space.dim for row in rows):
            raise ConfigurationError(f"{path}: vectors must all have {space.dim} coordinates")
        return np.asarray(rows)
    rc = _get(cfg, parent, "vectors", dict)
    rnd = _get(rc, path, "random", dict)
    count = _get(rnd, f"{path}.random", "count", int)
    if count < 1:
        raise ConfigurationError(f"{path}.random.count: must be >= 1")
    radius = radius_for(count)
    if exact:
        _build(parent, _require_enumerable, count)
    scale = _get(rnd, f"{path}.random", "scale", float, 1.0)
    if not (0 < scale <= 1.0):
        raise ConfigurationError(f"{path}.random.scale: must lie in (0, 1]")
    return _build(path, uniform_in_ball, space, scale * radius, key.substream(STREAM_VECTORS), count)


def _weights_from(cfg: dict, n: int, key: StreamKey, parent: str) -> np.ndarray:
    path = _path(parent, "weights")
    if isinstance(cfg.get("weights"), list):
        w = np.asarray(_get(cfg, parent, "weights", [float]))
        if w.size != n:
            raise ConfigurationError(f"{path}: expected {n} weights, got {w.size}")
        return w
    if _get(cfg, parent, "weights", dict).get("random") is not True:
        raise ConfigurationError(f'{path}: expected an array or {{"random": true}}')
    rng = key.substream(STREAM_VECTORS).child(1).generator()
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


def _pass_params(cfg: dict, parent: str, key: StreamKey, threads: int, confidence: float, mode=None) -> dict:
    """key, confidence, block_size, threads and R as every pass takes them, and the mode of a
    checker whose default mode is given; R is read after the mode, and only for Monte Carlo.
    """
    params = {
        "key": key,
        "confidence": confidence,
        "block_size": _get(cfg, parent, "block_size", int, DEFAULT_BLOCK_SIZE),
        "threads": threads,
    }
    if mode is not None:
        params["mode"] = mode = _get(cfg, parent, "mode", str, mode)
    params["R"] = _get(cfg, parent, "R", int) if mode in (None, "mc") else None
    return params


def _inequality_call(cfg: dict, index: int, key: StreamKey, threads: int, confidence: float, parent: str):
    experiment = cfg["experiment"]
    space = _space_from(cfg, parent)
    mode = None if experiment == "thm11_ii" else "mc" if experiment == "levy" else "exact"
    t_grid = _grid_from(cfg, parent, "t_grid")
    kwargs = {"t_grid": t_grid, **_pass_params(cfg, parent, key, threads, confidence, mode)}
    exact = kwargs.get("mode") == "exact"
    if experiment == "thm11_i":
        pair = _norming_from(cfg, parent)
        x = _vectors_from(
            cfg, space, key, parent, lambda count: _build(_path(parent, "vectors"), pair.at, count)[1], exact
        )
        checker, prepare, args = check_thm11_i, _prepare_thm11_i, (x, build_function_pair(pair), space)
    elif experiment == "contraction":
        radius = _get(cfg, parent, "vector_scale", float, 1.0)
        if radius <= 0:
            raise ConfigurationError(f"{_path(parent, 'vector_scale')}: must be positive, got {radius}")
        x = _vectors_from(cfg, space, key, parent, lambda count: radius, exact)
        args = (x, _weights_from(cfg, len(x), key, parent), space)
        checker, prepare = check_contraction, _prepare_contraction
    else:
        d = _dist_from(cfg, space, parent)
        if experiment == "thm11_ii":
            fp = build_function_pair(_norming_from(cfg, parent))
            checker, prepare, args = check_thm11_ii, _prepare_thm11_ii, (d, fp, _get(cfg, parent, "n", int))
        else:
            checker, prepare, args = check_levy, _prepare_levy, (d, _get(cfg, parent, "n", int))
            kwargs["b_n"] = _get(cfg, parent, "b_n", float, 1.0)
    # inside a sweep the checker's errors name the config they concern; its
    # rules run here, and the pass they return is dropped unrun
    _build(parent, prepare, *args, **kwargs)

    def call():
        reports = _build(parent, checker, *args, **kwargs)
        rows = [_report_row(index, r) for r in reports]
        summary = {
            "experiment": experiment,
            "rows": len(rows),
            "verdicts": dict(Counter(r.verdict for r in reports)),
            "min_sigma_margin": min((r.sigma_margin for r in reports), default=float("inf")),
            "min_slack": min((r.slack for r in reports), default=float("inf")),
        }
        return rows, summary, any(r.verdict == "violated" for r in reports)

    return call


def _wlln_call(cfg: dict, index: int, key: StreamKey, threads: int, confidence: float, parent: str):
    space = _space_from(cfg, parent)
    d = _dist_from(cfg, space, parent)
    gamma_mode = _get(cfg, parent, "gamma_mode", str, "auto")
    # refused here, before any sampling, with its key path
    _build(_path(parent, "gamma_mode"), _gamma_mode, d, gamma_mode)
    pair = _norming_from(cfg, parent)
    kwargs = {
        "n_grid": _get(cfg, parent, "n_grid", [int], None),
        "lambda_grid": _grid_from(cfg, parent, "lambda_grid", DEFAULT_LAMBDA_GRID),
        **_pass_params(cfg, parent, key, threads, confidence),
        "gamma_mode": gamma_mode,
        "gamma_R": _AUX_R,
        "criterion_R": _AUX_R,
    }
    _prepare_wlln(False, d, pair, **kwargs)

    def call():
        diag = run_wlln(d, pair, **kwargs)
        rows = [
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
            for n, cp, row in zip(diag.n_grid, diag.criterion, diag.estimates)
            for lam, e in zip(diag.lambda_grid, row)
        ]
        summary = {
            "experiment": "wlln",
            "rows": len(rows),
            "classification": diag.classification,
            "criterion_at_max_n": diag.criterion[-1].value,
            "tau": diag.tau,
            "delta": diag.delta,
        }
        return rows, summary, False

    return call


def _construct_call(cfg: dict, index, key, threads, confidence, parent: str):
    # a reader like the others; a norming table needs no key, threads or confidence
    pair = _norming_from(cfg, parent)

    def call():
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

    return call


def _ready_call(cfg: dict, sub: dict, index: int, threads: int, confidence: float):
    """Config index of cfg (sub is cfg itself unless cfg is a sweep) read into its ready call.

    A single config runs as a sweep of one: config index 0, key
    StreamKey(seed), and key paths without a configs[i] prefix.  Config
    i >= 1 gets the root key hashed from (seed, i), whose streams miss
    config 0's replication-indexed ones (e.g. its random weights at
    replication 1 of the vector substream).
    """
    parent = f"configs[{index}]" if cfg["experiment"] == "sweep" else ""
    experiment = sub["experiment"]
    key = None if experiment == "construct" else StreamKey(cfg["seed"], index).child(0)
    read = {"wlln": _wlln_call, "construct": _construct_call}.get(experiment, _inequality_call)
    return read(sub, index, key, threads, confidence, parent)


def _compile(config, flags: dict):
    """The config with the flags applied, every rule of a run checked, and no sample path drawn.

    Returns the config as the manifest records it, the output directory,
    and one ready call per config, each returning (rows, summary,
    violated), a row being a dict of the results.csv columns in order.
    Reading a config draws its random vectors and weights, which its
    call then uses.
    """
    if not isinstance(config, dict):
        raise ConfigurationError("config root: expected a JSON object")
    # flags (seed, threads, out, confidence) override the same-named top-level keys
    cfg = dict(config, **{k: v for k, v in flags.items() if v is not None})
    version = _get(cfg, "", "schema_version", int)
    if version != SCHEMA_VERSION:
        raise ConfigurationError(f"schema_version: expected {SCHEMA_VERSION}, got {version}")
    experiment = _get(cfg, "", "experiment", str)
    if experiment not in _EXPERIMENTS:
        raise ConfigurationError(f"experiment: expected one of {_EXPERIMENTS}, got {experiment!r}")
    subs = [cfg]
    if experiment == "sweep":
        subs = _get(cfg, "", "configs", [dict])
        if not subs:
            raise ConfigurationError("configs: must be a nonempty array")
        for i, sub in enumerate(subs):
            if _get(sub, f"configs[{i}]", "experiment", str) not in _INEQ_EXPERIMENTS:
                raise ConfigurationError(f"configs[{i}].experiment: sweeps accept only {_INEQ_EXPERIMENTS}")
    if experiment != "construct" and "seed" not in cfg:
        raise ConfigurationError(
            "missing required key seed (pass --seed or set it in the config;"
            " there is no wall-clock default)"
        )
    if "seed" in cfg:
        seed = _get(cfg, "", "seed", int)
        if not 0 <= seed < 2**64:
            raise ConfigurationError(f"seed: must lie in [0, 2^64), got {seed}")
    threads_v = _get(cfg, "", "threads", int, 1)
    if threads_v < 1:
        raise ConfigurationError(f"threads: must be >= 1, got {threads_v}")
    conf_v = _get(cfg, "", "confidence", float, 0.99)
    if not (0 < conf_v < 1):
        raise ConfigurationError(f"confidence: must lie in (0, 1), got {conf_v}")
    out_dir = Path(_get(cfg, "", "out", str, "sumtails_out"))
    calls = [_ready_call(cfg, sub, i, threads_v, conf_v) for i, sub in enumerate(subs)]
    return cfg, out_dir, calls


def validate_config(cfg: dict) -> str:
    """Every rule run applies, with no sample path drawn; returns the experiment kind or raises."""
    return _compile(cfg, {})[0]["experiment"]


def run(config, seed=None, threads=None, out=None, confidence=None) -> int:
    """Execute a config (path or dict); returns the process exit code.

    Every config is compiled, a sweep's included, before any of them runs.
    """
    started = time.perf_counter()
    flags = {"seed": seed, "threads": threads, "out": out, "confidence": confidence}
    cfg, out_dir, calls = _compile(config if isinstance(config, dict) else _load_config(config), flags)
    rows, summaries, violated = [], [], False
    for call in calls:
        sub_rows, sub_summary, sub_violated = call()
        rows.extend(sub_rows)
        summaries.append(sub_summary)
        violated = violated or sub_violated

    exit_code = 1 if violated else 0
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / "results.csv", rows)
    summary_doc = {
        "schema_version": SCHEMA_VERSION,
        "experiment": cfg["experiment"],
        "configs": summaries,
        "total_rows": len(rows),
        "exit_code": exit_code,
    }
    _write_json(out_dir / "summary.json", summary_doc)
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "tool": "sumtails",
        "version": __version__,
        "config": cfg,
        "wall_time_s": time.perf_counter() - started,
    }
    _write_json(out_dir / "manifest.json", manifest)
    return exit_code


def _write_csv(path: Path, rows: list[dict]) -> None:
    """The first row's keys as the header, then each row's values; every run has a row."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(rows[0])
        for row in rows:
            writer.writerow([_fmt(v) for v in row.values()])


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _load_config(config_path) -> dict:
    p = Path(config_path)
    if not p.exists():
        raise ConfigurationError(f"config file not found: {p}")
    try:
        with open(p) as fh:
            doc = json.load(fh)
    except ValueError as e:  # bad JSON, or an integer past Python's 4300-digit limit
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
        flags = {"seed": args.seed, "threads": args.threads, "out": args.out, "confidence": args.confidence}
        if args.command == "validate":
            print(f"ok: {_compile(cfg, flags)[0]['experiment']}")
            return 0
        if args.command in ("construct", "sweep"):
            cfg.setdefault("experiment", args.command)
            if cfg["experiment"] != args.command:
                raise ConfigurationError(
                    f"experiment: the {args.command} subcommand needs experiment ="
                    f" {args.command!r}, got {cfg['experiment']!r}"
                )
        return run(cfg, **flags)
    except (ConfigurationError, DomainError, MemoryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
