"""Start ``fisql-repro serve`` with the layer tracer installed.

Usage::

    python perfbench/serve_boot.py SRC TRACE_DIR serve --scale full ...

Installs the wrappers of :mod:`tracer`, then runs ``repro.cli.main`` with
the remaining arguments in this same process, so the traced server has
the process layout of an untraced one. When the server drains (SIGTERM),
the spans are written under ``TRACE_DIR``.
"""

from __future__ import annotations

import sys
from pathlib import Path


def main() -> int:
    src, trace_dir, *argv = sys.argv[1:]
    sys.path.insert(0, src)
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import tracer as tracing

    tracer = tracing.Tracer()
    tracing.install(tracer)
    from repro.cli import main as cli_main

    try:
        return cli_main(argv)
    finally:
        tracer.dump(trace_dir)


if __name__ == "__main__":
    sys.exit(main())
