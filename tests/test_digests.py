"""Golden results.csv digests: a changed byte in any benchmark workload fails here.

tests/golden_digests.txt holds the digests of the three benchmark
workloads at seeds 401-403, written by tools/csv_digests.py --write.
Seed 401 runs here (about 5 s); 402 and 403 run in the acceptance gate.
The digests hold for the numpy version and CPU the file names, so a
mismatch elsewhere names both; it is never skipped.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import csv_digests  # noqa: E402


@pytest.mark.parametrize("name", sorted(csv_digests.WORKLOADS))
def test_results_csv_bytes_match_the_golden_digests(name):
    problem = csv_digests.mismatch(csv_digests.GOLDEN, name, 401)
    assert problem is None, problem
