"""One traced pass of a batch workload, in a fresh process.

    python3 perfbench/traced_cli.py WORKLOAD SPANS_FILE

Imports darbouxlie, installs the tracer, runs the workload's CLI verb
through ``darbouxlie.cli.main`` in this process, restores the functions and
writes the spans to SPANS_FILE.  The last line of standard output is a JSON
object: whether the verb's output matched its digest, and the per-layer
metrics.
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

import darbouxlie.cli  # noqa: E402  (import before the tracer patches it)

from perfbench import batch  # noqa: E402
from perfbench.trace import Tracer  # noqa: E402


def main(workload: str, spans_file: str) -> int:
    argv, _, _ = batch.VERBS[workload]
    buf = io.StringIO()
    with Tracer() as tracer, redirect_stdout(buf):
        rc = darbouxlie.cli.main([*argv, "--format", "json"])
    tracer.dump(Path(spans_file))
    ok = batch.output_ok(workload, rc, buf.getvalue().encode())
    print(json.dumps({"ok": ok, "metrics": tracer.metrics()}))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
