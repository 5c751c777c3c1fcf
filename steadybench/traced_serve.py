"""``nsc-vpe serve`` with the layer wrappers installed.

``python3 steadybench/traced_serve.py SPANS_JSON serve [options]`` runs
the daemon exactly as the CLI does, with each submission's execution as
a job root (:data:`~steadybench.spans.DAEMON_ROOT`) and, when it stops,
writes every span it recorded, and the targets it could not wrap, to
``SPANS_JSON``.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from steadybench.spans import (  # noqa: E402
    DAEMON_ROOT, LAYERS, SpanRecorder, install,
)


def main() -> int:
    out, argv = Path(sys.argv[1]), sys.argv[2:]
    recorder = SpanRecorder()
    _uninstall, missing = install(recorder, LAYERS + DAEMON_ROOT)
    from repro.cli import main as cli_main

    try:
        return cli_main(argv)
    finally:
        out.write_text(json.dumps({"spans": recorder.export(),
                                   "missing": missing}))


if __name__ == "__main__":
    sys.exit(main())
