"""Print the sha256 of results.csv per benchmark workload and seed.

    python3 tools/csv_digests.py [--workload NAME ...] [--write PATH] SEED [SEED ...]

Each workload of bench/workloads.py is built at each seed and run
through sumtails.cli.run, imported from this checkout's src/, into a
temporary directory.  The line "NAME SEED DIGEST" covers the
results.csv of every config of the workload in order, as the
benchmark's own digest does; under it, one indented line
"config I DIGEST" per config gives that config's results.csv alone, so
a declared stream change can show which configs moved.  Two checkouts
that print the same lines wrote the same bytes, which is the gate for a
change that must not move any result.

--write PATH writes the same lines to PATH under a first line naming
the numpy version and the CPU that computed them; GOLDEN,
tests/golden_digests.txt, is such a file, and the Tier-1 tests compare
each run with it.  numpy does not promise the same Generator streams
across its versions (NEP 19), and ufuncs such as power and tan may
round differently on another CPU, so the digests hold for the same
numpy on the same machine.
"""

from __future__ import annotations

import argparse
import hashlib
import platform
import sys
import tempfile
from contextlib import nullcontext
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden_digests.txt"
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


def lines(name: str, seed: int) -> list[str]:
    """The printed lines of one workload at one seed."""
    combined, per_config = digests(name, seed)
    return [f"{name} {seed} {combined}"] + [f"  config {i} {d}" for i, d in enumerate(per_config)]


def provenance() -> str:
    """The numpy version and the CPU that compute the digests here."""
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return f"numpy {np.__version__} on {cpu}"


def mismatch(path: Path, name: str, seed: int) -> str | None:
    """None when the workload at seed prints the lines a --write file at path records, else why not."""
    text = path.read_text().splitlines()
    recorded = {}
    for line in text[1:]:
        if not line.startswith("  "):
            workload, at, _ = line.split()
            recorded[workload, int(at)] = block = []
        block.append(line)
    want, got = recorded.get((name, seed), []), lines(name, seed)
    if got == want:
        return None
    return "\n".join(
        [f"{name} at seed {seed} wrote other results.csv bytes than {path.name} records", "recorded:"]
        + want
        + ["computed:"]
        + got
        + [
            f"the file was {text[0].lstrip('# ')}; this run has {provenance()}.",
            "A declared stream or rounding change rewrites it with tools/csv_digests.py --write.",
        ]
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--write", type=Path, help="write the lines to this file instead of printing them")
    parser.add_argument("seeds", type=int, nargs="+")
    args = parser.parse_args(argv)
    with open(args.write, "w") if args.write else nullcontext(sys.stdout) as out:
        if args.write:
            out.write(f"# written with {provenance()}\n")
        for name in args.workload or sorted(WORKLOADS):
            for seed in args.seeds:
                out.write("".join(f"{line}\n" for line in lines(name, seed)))
                out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
