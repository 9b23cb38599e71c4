"""Start the sweep service exactly as ``repro-experiments serve`` does.

The ``service`` workload runs this as the server process::

    PYTHONPATH=src python3 perfbench/serve.py --cache-dir DIR \\
        [--trace-dir OUT]

It binds an ephemeral port (the CLI logs it on stderr) and serves until
SIGINT. With ``--trace-dir`` the layer wrappers of :mod:`tracer` are
installed for the server's whole life and, after it stops, its spans
and their summary are written to ``OUT/server-spans.jsonl`` and
``OUT/server-summary.json``.
"""

import argparse
import json
import os
import sys

import env

env.pin_blas()

from repro.experiments.runner import main as cli_main  # noqa: E402

from tracer import Tracer  # noqa: E402


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--trace-dir", default=None)
    args = parser.parse_args(argv)
    serve_argv = ["serve", "--port", "0", "--cache-dir", args.cache_dir]
    if args.trace_dir is None:
        return cli_main(serve_argv)
    tracer = Tracer(always=True)
    tracer.install()
    try:
        return cli_main(serve_argv)
    finally:
        tracer.restore()
        tracer.dump(os.path.join(args.trace_dir, "server-spans.jsonl"))
        with open(os.path.join(args.trace_dir, "server-summary.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(tracer.summary(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
