"""The demo scripts run as programs, with their standard output pinned."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: sha256 of the standard output of each script in demos/
DEMO_STDOUT_SHA256 = {
    "demo_pipeline.py":
        "87a67731f3ebffea772dfedf2e43ba78e5933ef26aab257781fea2578d9b62b1",
    "demo_classification.py":
        "5cfa87e0bebd9955dcfe2192cb709444930e86373bc2047965e259cf7b1abbae",
    "demo_center_extension.py":
        "ca8af0583b105f149cd733e2ab84309686f89d1767fd57ec53df224ea8941333",
}


@pytest.mark.parametrize("demo", sorted(DEMO_STDOUT_SHA256))
def test_demo_runs_cleanly_with_pinned_output(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          capture_output=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stderr == b""
    assert hashlib.sha256(proc.stdout).hexdigest() == \
        DEMO_STDOUT_SHA256[demo], proc.stdout.decode()
