"""sumtails benchmark: drive sumtails.cli.run in-process on one workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

--trace 0 measures the end-to-end metrics with no wrappers installed.
--trace 1 alternates untraced and traced passes (and repeats a workload
that fans out, traced, at 1 thread), and reports the per-layer metrics
and the tracing overhead.  Every pass's outputs are
checked; the last line of standard output is one JSON object, and the
exit code is 0 only when every check passed.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import layers
from checks import check_run
from spans import Tracer, TracingError
from workloads import WORKLOADS, usable_cpus

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_out"

SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60


@dataclass
class Pass:
    """One run of every config of a workload."""

    wall_s: float
    digest: str
    problems: list[list[str]]  # per sub-config
    rows: int
    bytes_written: int
    run_id: str
    pass_problems: list[str] = field(default_factory=list)

    @property
    def configs(self) -> int:
        return len(self.problems)

    @property
    def failed(self) -> int:
        if self.pass_problems:
            return self.configs
        return sum(1 for p in self.problems if p)


def import_sumtails():
    """Import sumtails from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    import sumtails  # raises ImportError when src/ is absent
    from sumtails import cli

    where = Path(sumtails.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"sumtails was imported from {where}, not from {SRC}")
    return cli


def machine_facts() -> dict:
    import numpy
    import scipy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": usable_cpus(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def run_pass(cli, workload, out_dir: Path, threads: int, run_id: str) -> Pass:
    gc.collect()
    codes = []
    started = time.perf_counter()
    for i, cfg in enumerate(workload.configs):
        codes.append(cli.run(cfg, threads=threads, out=str(out_dir / f"config{i}")))
    wall = time.perf_counter() - started
    digest = hashlib.sha256()
    problems: list[list[str]] = []
    rows = written = 0
    for i, (cfg, code) in enumerate(zip(workload.configs, codes)):
        run_dir = out_dir / f"config{i}"
        results = run_dir / "results.csv"
        digest.update(results.read_bytes())
        problems.extend(check_run(cfg, code, results))
        with open(results) as fh:
            rows += sum(1 for _ in fh) - 1
        written += sum((run_dir / f).stat().st_size for f in ("results.csv", "summary.json", "manifest.json"))
    return Pass(wall, digest.hexdigest(), problems, rows, written, run_id)


def timed_passes(cli, workload, out_dir: Path, seconds: float, threads: int, label: str, tracer=None, after_pass=None):
    """Passes until `seconds` have gone by (at least one); after_pass gets the elapsed share."""
    passes = []
    started = time.perf_counter()
    while not passes or time.perf_counter() < started + seconds:
        run_id = f"{workload.name}-{label}-{len(passes)}"
        if tracer is not None:
            tracer.run_id = run_id
        passes.append(run_pass(cli, workload, out_dir, threads, run_id))
        if after_pass is not None:
            after_pass((time.perf_counter() - started) / seconds)
    return passes


class SetupProbes:
    """Set-up time in fresh interpreters: one warm-up probe, then SETUP_PROBES timed ones.

    The timed probes are spread over the measured passes, so that they
    see the same state of a shared machine as the passes do.
    """

    def __init__(self, workload, out_dir: Path):
        self._cfg_path = out_dir / "setup_configs.json"
        self._cfg_path.write_text(json.dumps(list(workload.configs)))
        self.times: list[float] = []
        self._probe()

    def _probe(self) -> float:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(self._cfg_path)],
            env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=str(ROOT),
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        return float(proc.stdout.strip().splitlines()[-1])

    def when_due(self, progress: float) -> None:
        if len(self.times) < SETUP_PROBES and progress >= (len(self.times) + 0.5) / SETUP_PROBES:
            self.times.append(self._probe())

    def finish(self) -> list[float]:
        while len(self.times) < SETUP_PROBES:
            self.times.append(self._probe())
        return self.times


def plain_run(cli, workload, out_dir: Path, seconds: float, probes: SetupProbes | None = None):
    warm = run_pass(cli, workload, out_dir, workload.threads, f"{workload.name}-warmup")
    passes = timed_passes(
        cli, workload, out_dir, seconds, workload.threads, "plain",
        after_pass=probes.when_due if probes else None,
    )
    wall = statistics.median(p.wall_s for p in passes)
    metrics = {
        "wall_s": (wall, "s"),
        "summands_per_s": (workload.summands / wall, "1/s"),
    }
    if probes is not None:
        metrics["setup_s"] = (statistics.median(probes.finish()), "s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return [warm] + passes, metrics


def traced_run(cli, workload, out_dir: Path, seconds: float):
    others = [1] if workload.threads > 1 else []
    paired_seconds = seconds * 2 / (2 + len(others))
    warm = run_pass(cli, workload, out_dir, workload.threads, f"{workload.name}-warmup")
    tracer = Tracer()
    plain: list[Pass] = []
    traced: list[Pass] = []
    # untraced and traced passes alternate, so that the overhead compares
    # passes that saw the same state of a shared machine
    started = time.perf_counter()
    while not traced or time.perf_counter() < started + paired_seconds:
        plain.append(run_pass(cli, workload, out_dir, workload.threads, f"{workload.name}-plain-{len(plain)}"))
        with layers.installed(tracer):
            tracer.run_id = f"{workload.name}-traced-{len(traced)}"
            traced.append(run_pass(cli, workload, out_dir, workload.threads, tracer.run_id))
    repeats = {}
    for t in others:
        with layers.installed(tracer):
            repeats[t] = timed_passes(
                cli, workload, out_dir, seconds - paired_seconds, t, f"traced-t{t}", tracer
            )

    by_run: dict[str, list] = {}
    for s in tracer.spans:
        by_run.setdefault(s.run_id, []).append(s)
    layer_values = {}
    for p in traced + [p for ps in repeats.values() for p in ps]:
        spans = by_run.get(p.run_id, [])
        p.pass_problems.extend(layers.check_predictions(spans, workload.layers_called))
        layer_values[p.run_id] = values = layers.metrics(spans)
        if values["space.norms.nonfinite"]:
            p.pass_problems.append(f"{values['space.norms.nonfinite']} norms are not finite")

    per_pass = [layer_values[p.run_id] for p in traced]
    metrics = {k: (statistics.median(m[k] for m in per_pass), unit_of(k)) for k in per_pass[0]}
    overhead = statistics.median(t.wall_s / p.wall_s for p, t in zip(plain, traced)) - 1.0
    speedup = 0.0
    if 1 in repeats:
        mc_1 = statistics.median(layer_values[p.run_id]["estimator.mc_counts.wall_s"] for p in repeats[1])
        mc_n = metrics["estimator.mc_counts.wall_s"][0]
        speedup = mc_1 / mc_n if mc_n else 0.0
    metrics["estimator.speedup_2v1"] = (speedup, "ratio")
    metrics["suite.threshold_comparisons"] = (workload.threshold_comparisons, "count")
    metrics["cli.rows_written"] = (traced[0].rows, "count")
    metrics["cli.bytes_written"] = (traced[0].bytes_written, "bytes")
    metrics["trace.overhead_share"] = (overhead, "ratio")
    write_spans(tracer.spans, OUT_ROOT / f"spans-{workload.name}-s{workload.configs[0]['seed']}.jsonl")
    return [warm] + plain + traced + [p for ps in repeats.values() for p in ps], metrics


def check_digests(passes: list[Pass]) -> list[str]:
    """Mark every pass whose results differ from the first; return the distinct digests.

    All passes of a run share one seed, so neither the thread count nor
    tracing may change a byte of results.csv.
    """
    for p in passes:
        if p.digest != passes[0].digest:
            p.pass_problems.append(f"results.csv digest {p.digest[:16]} differs from {passes[0].digest[:16]}")
    return sorted({p.digest for p in passes})


def unit_of(name: str) -> str:
    if name.endswith("_s") or ".busy_s." in name:
        return "s"
    if name.endswith("ns_per_element"):
        return "ns"
    if name.endswith("bytes_computed"):
        return "bytes"
    if name.endswith("fanout_efficiency"):
        return "ratio"
    return "count"


def write_spans(spans, path: Path) -> None:
    with open(path, "w") as fh:
        for s in sorted(spans, key=lambda s: s.start):
            fh.write(json.dumps({
                "sid": s.sid, "name": s.name, "start": s.start, "end": s.end,
                "parent": s.parent, "thread": s.thread, "run_id": s.run_id, "attrs": s.attrs,
            }) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must lie in [0, 2^63)")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        cli = import_sumtails()
    except ImportError as e:
        print(f"error: cannot import sumtails from {SRC}: {e}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](args.seed)
    out_dir = OUT_ROOT / f"{workload.name}-s{args.seed}-p{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    facts = machine_facts()
    try:
        if args.trace:
            passes, metrics = traced_run(cli, workload, out_dir, args.seconds)
        else:
            passes, metrics = plain_run(cli, workload, out_dir, args.seconds, SetupProbes(workload, out_dir))
    except TracingError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    digests = check_digests(passes)
    attempted = sum(p.configs for p in passes)
    failed = sum(p.failed for p in passes)

    print("machine " + " ".join(f"{k}={v}" for k, v in facts.items()))
    print(f"workload {workload.name} seed {args.seed} threads {workload.threads} passes {len(passes)}")
    for d in digests:
        print(f"results.csv sha256 {d}")
    for p in passes:
        for msg in p.pass_problems + [m for probs in p.problems for m in probs]:
            print(f"FAILED {p.run_id}: {msg}")
    print(f"failed_share {failed / attempted:.6g} ({failed} of {attempted} configs)")
    print("pass walls " + " ".join(f"{p.run_id.removeprefix(workload.name + '-')}:{p.wall_s:.3f}" for p in passes))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
