"""``repro serve`` with the suite's instruments inside the service process.

Usage: ``python serve_boot.py OUT.json [--spans SPANS.json] serve [serve
options]``.  ``serve-mix`` starts the service through this file.  From
before the program is imported, a host-speed sampler runs in the service;
its samples are written to ``OUT.json`` when the service exits.  With
``--spans`` (traced runs) the layer wrappers are installed too, so the
engine, journal and golden layers are traced inside the service, and the
spans and counts are written to ``SPANS.json``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

SUITE_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(SUITE_DIR))

from hostspeed import HostSpeed  # noqa: E402


def main() -> int:
    out_file, argv = sys.argv[1], sys.argv[2:]
    spans_file = None
    if argv[:1] == ["--spans"]:
        spans_file, argv = argv[1], argv[2:]
    speed = HostSpeed().start()
    tracer = None
    if spans_file is not None:
        from tracing import Tracer, install_layer_wrappers

        tracer = install_layer_wrappers(Tracer())
        tracer.install()
        tracer.enabled = True
    from repro.cli import main as cli_main

    try:
        return cli_main(argv)
    finally:
        speed.stop()
        with open(out_file, "w") as handle:
            json.dump({"speed": speed.samples}, handle)
        if tracer is not None:
            tracer.enabled = False
            tracer.dump(spans_file)


if __name__ == "__main__":
    raise SystemExit(main())
