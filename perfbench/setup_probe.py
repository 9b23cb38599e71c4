"""One fresh-process set-up of a batch workload, for ``setup_s``.

Imports the program, plans the workload's sweeps and prepares an empty
cache, then prints ``ready`` and exits. The parent times the whole
thing from spawn to that line::

    PYTHONPATH=src python3 perfbench/setup_probe.py sweep3d full
"""

import sys

import env

env.pin_blas()

from repro.engine import ResultCache, clear_memo  # noqa: E402

import workloads  # noqa: E402


def main(workload: str, size: str) -> int:
    build = {"sweep3d": workloads.sweep3d_specs,
             "profile2d": workloads.profile2d_specs}[workload]
    specs = build(0, size)
    for spec in specs.values():
        spec.jobs()
    ResultCache()
    clear_memo()
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
