"""Run ``repro-flat serve`` with CLI defaults, optionally traced.

Usage: ``python3 perfbench/daemon.py [--layers-out FILE] [--refs-out FILE]
[serve args...]``

With ``--layers-out`` the layer wrappers of :mod:`layers` are installed
before the daemon starts, and on exit (SIGTERM drains it gracefully)
the per-layer statistics plus the engine's ``search_totals()`` and
``scaleout_totals()`` are written to ``FILE`` as JSON.  With
``--refs-out`` a :class:`refprobe.RefProbe` on the process CPU clock
runs for the daemon's life, and its samples are written to ``FILE`` on
exit.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import use_checkout_sources  # noqa: E402


def main(argv: list) -> int:
    use_checkout_sources()
    layers_out = refs_out = None
    if argv[:1] == ["--layers-out"]:
        layers_out, argv = argv[1], argv[2:]
    if argv[:1] == ["--refs-out"]:
        refs_out, argv = argv[1], argv[2:]
    tracer = None
    if layers_out is not None:
        from layers import Tracer

        tracer = Tracer()
        tracer.install()
    probe = None
    if refs_out is not None:
        from refprobe import RefProbe

        probe = RefProbe(clock=time.process_time)
        probe.start()
    from repro.cli import main as cli_main

    try:
        return cli_main(["serve", *argv])
    finally:
        if probe is not None:
            probe.stop()
            Path(refs_out).write_text(json.dumps(probe.samples))
        if tracer is not None:
            from repro.core.engine import search_totals
            from repro.core.scaleout import scaleout_totals

            tracer.uninstall()
            Path(layers_out).write_text(json.dumps({
                "layers": tracer.snapshot(),
                "search": search_totals(),
                "scaleout": scaleout_totals(),
            }))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
