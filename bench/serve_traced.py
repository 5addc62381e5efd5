"""``python -m repro serve`` with the benchmark's span wrappers installed.

    python -m bench.serve_traced DUMP.json [serve options...]

Installs :mod:`bench.trace`, runs ``repro.cli.main(["serve", ...])`` —
the same entry point and defaults as the untraced server — and writes
the span dump to ``DUMP.json`` when SIGTERM (or Ctrl-C) stops it.
"""

from __future__ import annotations

import json
import signal
import sys
from pathlib import Path

from bench import trace


def main(argv) -> int:
    dump_path, serve_args = Path(argv[0]), list(argv[1:])
    from repro.cli import main as repro_main

    def stop(signum, frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, stop)
    tracer = trace.install()
    try:
        code = repro_main(["serve", *serve_args])
    finally:
        trace.uninstall(tracer)
        dump_path.write_text(json.dumps(tracer.dump()))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
