"""The batch workloads ``tables``, ``trees`` and ``classes``.

Each pass runs one CLI verb with ``--format json`` as a fresh process, as a
user would, so interpreter start and import are paid every time.  The
output must be byte-identical to the digest recorded for the verb and the
exit code 0; otherwise every check of the pass counts as failed.

Every child also samples the host's speed (``hostspeed``): the pass under a
``Sampler``, the set-up right after its timed part.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

from perfbench.hostspeed import mean_speed

#: workload -> (CLI arguments, sha256 of the JSON output, checks in it)
#: The checks are the verdict entries: family files plus Schouten families
#: for ``tables``, verified branches plus certified empty leaves for
#: ``trees``, witnessed classes for ``classes``.
VERBS = {
    "tables": (("verify-tables", "--algebra", "all"),
               "8fc97c7cadfa9b562c6af349e054cb2c3195c83a63b3009e3193908ec1dbe7ce",
               31),
    "trees": (("darboux-verify", "--tree", "all"),
              "68080eac6662659b6fd5a7acd760d09bae5ad9a58eda1a6065b17f6217a418af",
              477),
    "classes": (("coboundary-classes",),
                "587790e68e67c78306dc5d2a42a04cca10936f86f6443825868c11ad21f366de",
                273),
}

_CLOCK = "import time\nt0 = time.perf_counter()\n"
_PRINT = ("t = time.perf_counter() - t0\n"
          "from perfbench.hostspeed import Sampler, mean_speed\n"
          "s = Sampler()\ns.sample(6)\n"      # the first one warms up
          "print(t, mean_speed(s.samples[1:]))\n")
_FAMILIES = ("from darbouxlie.classify import FAMILY_FILES, load_family\n"
             "for s in FAMILY_FILES:\n    load_family(s)\n")

#: set-up per workload: import the package and parse the golden data the
#: workload reads (the query workload parses none)
SETUP_CODE = {
    "tables": _CLOCK + "import darbouxlie.cli\n" + _FAMILIES + _PRINT,
    "classes": _CLOCK + "import darbouxlie.cli\n" + _FAMILIES + _PRINT,
    "trees": _CLOCK + "import darbouxlie.cli\n"
             "from darbouxlie.classify import TREE_FILES, load_family, "
             "load_tree\n"
             "for s in TREE_FILES:\n"
             "    load_family(load_tree(s).family_stem)\n" + _PRINT,
    "query": _CLOCK + "import darbouxlie\n" + _PRINT,
}


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(root)])
    return env


def run_child(cmd: list[str], root: Path):
    """Run a child process to completion: (exit code, stdout, wall s,
    cpu s, peak RSS in MB).  CPU and RSS cover the child and every
    descendant it waited for."""
    t0 = time.perf_counter()
    p = subprocess.Popen(cmd, cwd=root, env=child_env(root),
                         stdout=subprocess.PIPE)
    try:
        out = p.stdout.read()
    finally:
        p.stdout.close()
        _, status, ru = os.wait4(p.pid, 0)
        p.returncode = os.waitstatus_to_exitcode(status)
    wall = time.perf_counter() - t0
    return (p.returncode, out, wall, ru.ru_utime + ru.ru_stime,
            ru.ru_maxrss / 1024)


def setup_times(workload: str, root: Path, repeats: int):
    """Import-and-parse time, measured inside ``repeats`` fresh processes,
    each with the host's speed right after it: a list of (s, speed)."""
    times = []
    for _ in range(repeats):
        rc, out, *_ = run_child([sys.executable, "-c", SETUP_CODE[workload]],
                                root)
        if rc != 0:
            raise RuntimeError(f"set-up of {workload} exited with {rc}")
        t, speed = map(float, out.split())
        times.append((t, speed))
    return times


def output_ok(workload: str, rc: int, out: bytes) -> bool:
    return rc == 0 and hashlib.sha256(out).hexdigest() == VERBS[workload][1]


def run_pass(workload: str, root: Path) -> dict:
    """One untraced pass of a batch workload.  ``wall`` and ``cpu`` are net
    of the time the sampler took; ``speed`` is the host's mean speed over
    the pass (1.0 if it failed before sampling)."""
    argv, _, checks = VERBS[workload]
    samples_file = (root / ".bench_build" / "perfbench"
                    / f"samples-{workload}.json")
    samples_file.parent.mkdir(parents=True, exist_ok=True)
    samples_file.unlink(missing_ok=True)
    cmd = [sys.executable, str(root / "perfbench" / "timed_cli.py"),
           str(samples_file), *argv, "--format", "json"]
    rc, out, wall, cpu, rss = run_child(cmd, root)
    samples = (json.loads(samples_file.read_text())
               if samples_file.is_file() else [])
    return {"ok": output_ok(workload, rc, out),
            "wall": wall - sum(e - s for s, e, _ in samples),
            "cpu": cpu - sum(c for _, _, c in samples),
            "speed": mean_speed(samples) if samples else 1.0,
            "rss": rss, "checks": checks}
