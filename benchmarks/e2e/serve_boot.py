"""Traced boot of the serving tier.

``python -m benchmarks.e2e.serve_boot SPANS_OUT [repro.serve args...]``
installs the layer wrappers of :mod:`benchmarks.e2e.trace` and then
runs ``repro.serve.__main__.main`` unchanged.  When the server has
drained (SIGTERM), every recorded span is written to ``SPANS_OUT``.
"""

from __future__ import annotations

import json
import sys

from repro.obs.reqlog import get_request_id
from repro.serve.__main__ import main as serve_main

from .trace import Recorder, install


def main(argv: list[str]) -> int:
    spans_out, serve_args = argv[0], argv[1:]
    recorder = Recorder(op_of=get_request_id)
    missing, _ = install(recorder)
    try:
        return serve_main(serve_args)
    finally:
        recorder.dump(spans_out)
        with open(spans_out + ".missing", "w", encoding="utf-8") as handle:
            json.dump(missing, handle)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
