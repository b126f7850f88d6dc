#!/usr/bin/env python3
"""Run ``repro serve`` with each layer's entry points wrapped in spans.

Usage: ``PYTHONPATH=src python3 servebench/launcher.py SPANS.json serve DB [flags]``

Installs the wrappers of :mod:`tracer`, then hands over to the CLI's own
entry point, so the traced server runs the same processes as an untraced
one.  The spans are written to ``SPANS.json`` when the server shuts down
(SIGINT), and by each shard worker to ``SPANS.json.worker-<pid>``.
"""

import sys

import tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    recorder = tracer.install(spans_path)
    from repro.cli import main as cli_main

    try:
        return cli_main(argv)
    finally:
        recorder.dump()


if __name__ == "__main__":
    sys.exit(main())
