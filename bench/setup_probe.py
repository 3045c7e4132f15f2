"""Time one cold set-up in a fresh interpreter and print it in seconds.

Set-up is importing sumtails (which imports numpy and scipy), then
validating the workload's configs and building their norming pairs.
Usage: python3 setup_probe.py CONFIGS_JSON   (a JSON list of CLI configs)
"""

import time

started = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

from sumtails import build_function_pair, power_pair  # noqa: E402
from sumtails.cli import validate_config  # noqa: E402


def main() -> None:
    with open(sys.argv[1]) as fh:
        configs = json.load(fh)
    for cfg in configs:
        validate_config(cfg)
        for sub in cfg.get("configs", [cfg]):
            norming = sub.get("norming")
            if norming is not None:
                build_function_pair(power_pair(norming["n_max"], norming["exp_a"], norming["exp_b"]))
    print(f"{time.perf_counter() - started!r}")


if __name__ == "__main__":
    main()
