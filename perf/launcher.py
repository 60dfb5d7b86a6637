"""The server child: ``repro serve`` defaults, built from scratch.

``python perf/launcher.py <dataset> <scale> [<span file>]`` generates the
graph, preprocesses it (no disk cache), hosts a ``SessionManager`` with
the defaults of ``repro serve`` behind a ``QueryServer`` on an ephemeral
port, prints ``{"port": N}`` and serves until the wire ``shutdown`` op.
Given a span file, the timing wrappers of ``spans.py`` are installed
before anything is built and their spans are written there at exit.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main(dataset: str, scale: str, span_file: str | None = None) -> None:
    recorder = None
    if span_file is not None:
        import spans

        recorder = spans.Recorder("s")
        spans.install_server(recorder)

    from repro.datasets import registry
    from repro.service import QueryServer, SessionManager

    bundle = registry.get_dataset(dataset, scale, use_disk_cache=False)
    server = QueryServer(SessionManager(bundle.make_context()), "127.0.0.1", 0)
    sys.stdout.write(json.dumps({"port": server.address[1]}) + "\n")
    sys.stdout.flush()
    try:
        server.serve_forever()
    finally:
        if recorder is not None:
            Path(span_file).write_text(json.dumps(recorder.spans))


if __name__ == "__main__":
    main(*sys.argv[1:])
