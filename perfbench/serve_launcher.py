"""Traced ``repro serve``: install the tracer, then run the real server.

Takes the same defaults as ``repro serve --jobs 1`` (ephemeral port on
127.0.0.1, four resident substrates, no retries, no journal). Prints the
server's listening banner as usual and, once a ``shutdown`` request has
stopped it, one line ``TRACE <json>`` with the tracer summary.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import require_source  # noqa: E402


def main() -> int:
    require_source()
    import tracing

    tracer = tracing.install()
    from repro.service.server import DEFAULT_BATCH_WINDOW, run_server

    status = run_server(
        host="127.0.0.1",
        port=0,
        max_substrates=4,
        jobs=1,
        retries=0,
        task_timeout=None,
        batch_window=DEFAULT_BATCH_WINDOW,
        journal_dir=None,
    )
    print("TRACE " + json.dumps(tracer.summary()), flush=True)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
