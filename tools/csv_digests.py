"""Print one sha256 of results.csv per benchmark workload and seed.

    python3 tools/csv_digests.py [--workload NAME ...] SEED [SEED ...]

Each workload of bench/workloads.py is built at each seed and run
through sumtails.cli.run, imported from this checkout's src/, into a
temporary directory.  The digest covers the results.csv of every config
of the workload in order, as the benchmark's own digest does.  Two
checkouts that print the same lines wrote the same bytes, which is the
gate for a change that must not move any result.
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


def digest(name: str, seed: int) -> str:
    workload = WORKLOADS[name](seed)
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        for i, cfg in enumerate(workload.configs):
            out = Path(tmp) / f"config{i}"
            code = cli.run(cfg, threads=workload.threads, out=str(out))
            if code != 0:
                raise SystemExit(f"{name} seed {seed}: config {i} exited with code {code}")
            h.update((out / "results.csv").read_bytes())
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("seeds", type=int, nargs="+")
    args = parser.parse_args(argv)
    for name in args.workload or sorted(WORKLOADS):
        for seed in args.seeds:
            print(f"{name} {seed} {digest(name, seed)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
