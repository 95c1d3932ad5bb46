"""Start ``repro serve`` with the benchmark's probes in its process.

Usage: ``serve_main.py speed|trace OUT serve [SERVE ARGS...]``, or
``serve_main.py plain serve [SERVE ARGS...]`` for no probes at all.

- ``speed``: samples host speed (:mod:`speed`) from before the program's
  imports until the daemon exits, and writes the samples to ``OUT``.
- ``trace``: installs the serving layers' spans before the CLI builds
  the world, and writes them to ``OUT`` once the daemon has drained.
"""

from __future__ import annotations

import json
import pathlib
import sys

import speed


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "plain":
        from repro.cli.main import main as cli

        return cli(argv[1:])
    out = pathlib.Path(argv[1])
    if mode == "speed":
        sampler = speed.SpeedSampler()
        sampler.start()
        try:
            from repro.cli.main import main as cli

            return cli(argv[2:])
        finally:
            sampler.stop()
            sampler.write(out)
    if mode != "trace":
        raise SystemExit(f"unknown mode {mode!r}")
    from layers import install_serve
    from spans import Tracer

    tracer = Tracer()
    install_serve(tracer)
    from repro.cli.main import main as cli

    try:
        return cli(argv[2:])
    finally:
        out.write_text(json.dumps(tracer.document()))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
