"""Start the policy daemon with the layer tracer installed.

Installs the span wrappers of :mod:`tracing`, then hands the remaining
arguments to ``repro.serve.__main__.main`` exactly as ``python -m
repro.serve`` would.  Spans recorded before the daemon starts serving are
set-up spans; once it serves they are measured spans.  When the daemon
exits, every span is written to ``--spans-out``.

Usage::

    python perfbench/launcher.py --spans-out spans.json.gz -- \\
        --model model.npz --socket daemon.sock ...
"""

from __future__ import annotations

import sys

from tracing import Tracer


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "--spans-out" or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    spans_out, serve_args = argv[1], argv[3:]
    tracer = Tracer()
    tracer.install()

    import repro.serve.__main__ as serve_main
    from repro.serve.daemon import PolicyDaemon

    tracer.enter_phase_on(PolicyDaemon, "run", "measure")
    try:
        return serve_main.main(serve_args)
    finally:
        tracer.dump(spans_out)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
