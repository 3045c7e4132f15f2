"""Print the sha256 of results.csv per benchmark workload and seed.

    python3 tools/csv_digests.py [--workload NAME ...] SEED [SEED ...]

Each workload of bench/workloads.py is built at each seed and run
through sumtails.cli.run, imported from this checkout's src/, into a
temporary directory.  The line "NAME SEED DIGEST" covers the
results.csv of every config of the workload in order, as the
benchmark's own digest does; under it, one indented line
"config I DIGEST" per config gives that config's results.csv alone, so
a declared stream change can show which configs moved.  Two checkouts
that print the same lines wrote the same bytes, which is the gate for a
change that must not move any result.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from sumtails import cli  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def digests(name: str, seed: int) -> tuple[str, list[str]]:
    """The workload's combined digest and each config's own."""
    workload = WORKLOADS[name](seed)
    h = hashlib.sha256()
    per_config = []
    with tempfile.TemporaryDirectory() as tmp:
        for i, cfg in enumerate(workload.configs):
            out = Path(tmp) / f"config{i}"
            code = cli.run(cfg, threads=workload.threads, out=str(out))
            if code != 0:
                raise SystemExit(f"{name} seed {seed}: config {i} exited with code {code}")
            data = (out / "results.csv").read_bytes()
            h.update(data)
            per_config.append(hashlib.sha256(data).hexdigest())
    return h.hexdigest(), per_config


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("seeds", type=int, nargs="+")
    args = parser.parse_args(argv)
    for name in args.workload or sorted(WORKLOADS):
        for seed in args.seeds:
            combined, per_config = digests(name, seed)
            print(f"{name} {seed} {combined}")
            for i, d in enumerate(per_config):
                print(f"  config {i} {d}")
            sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
