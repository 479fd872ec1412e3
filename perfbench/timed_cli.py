"""One untraced pass of a batch workload, in a fresh process.

    python3 perfbench/timed_cli.py SAMPLES_FILE VERB [ARG ...]

Runs ``darbouxlie.cli.main`` on the arguments as ``python3 -m
darbouxlie.cli`` would, with a ``hostspeed.Sampler`` active from before
the import to the end, and writes the samples as JSON to SAMPLES_FILE.
The CLI's output and exit code pass through unchanged.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench.hostspeed import Sampler  # noqa: E402


def main(samples_file: str, *argv: str) -> int:
    with Sampler() as sampler:
        import darbouxlie.cli
        rc = darbouxlie.cli.main(list(argv))
        sys.stdout.flush()
    Path(samples_file).write_text(json.dumps(sampler.samples))
    return rc


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
