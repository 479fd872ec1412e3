"""Generated one-line mutations of valid algebra files, driven through
``cli.main``: every run ends with exit 0, 1 or 2 and no uncaught
exception, and exit 2 prints an ``error: `` line.  Also bricks of
generated algebras above dimension 5."""

import contextlib
import random
import re
import sys
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from darbouxlie import (find_bricks, fundamental_fields, parse_algebra,
                        vf_apply)
from darbouxlie.cli import main

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))
from perfbench.query import (almost_abelian, bracket_text,  # noqa: E402
                             so3_plus_abelian)

#: the per-algebra verbs, with their extra arguments for dimension n;
#: bricks is left out to keep the suite short: on dimension 6 one call
#: takes up to about a second
VERBS = [("validate", lambda n: []), ("derivations", lambda n: []),
         ("invariants", lambda n: []), ("ybe", lambda n: []),
         ("orbit-dim", lambda n: ["e12"]),
         ("rank-at", lambda n: [",".join(["1"] * (n * (n - 1) // 2))]),
         ("center-ext", lambda n: [])]

TOKENS = ["dim", "4", "0", "-1", "e1", "e0", "e9", "+e2", "-", "*", "=",
          "[1,2]", "[", "]", "1/0", "2/3", "x", "#"]
BAD_RATIONALS = ["1/0", "0/0", "1/", "/2", "1//2", "1.5", "-1/-2", "1e3"]


def _algebra(family, n, seed):
    rng = random.Random(seed)
    if family == "so3":
        n = max(n, 3)
        return n, bracket_text(n, so3_plus_abelian(rng, n))
    return n, bracket_text(n, almost_abelian(rng, n))


def _mutate(lines, how, i, pick, token, n):
    """Apply one mutation to line i (the header is line 0)."""
    lines = list(lines)
    line = lines[i]
    toks = line.split()
    if how == "delete-token":
        del toks[pick % len(toks)]
        lines[i] = " ".join(toks)
    elif how == "insert-token":
        toks.insert(pick % (len(toks) + 1), token)
        lines[i] = " ".join(toks)
    elif how == "bad-index":
        nums = list(re.finditer(r"\d+", line))
        m = nums[pick % len(nums)]
        bad = [0, n + 1, 10 ** 20][pick % 3]
        lines[i] = f"{line[:m.start()]}{bad}{line[m.end():]}"
    elif how == "bad-rational":
        q = BAD_RATIONALS[pick % len(BAD_RATIONALS)]
        terms = list(re.finditer(r"e\d+", line))
        if terms:
            m = terms[pick % len(terms)]
            lines[i] = f"{line[:m.start()]}{q}*{line[m.start():]}"
        else:
            lines[i] = f"dim {q}"
    elif how == "repeat-header":
        lines.insert(pick % (len(lines) + 1), lines[0])
    elif how == "drop-header":
        del lines[0]
    return "\n".join(lines) + "\n"


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(family=st.sampled_from(["almost_abelian", "so3"]),
       n=st.integers(1, 6), seed=st.integers(0, 2 ** 16),
       how=st.sampled_from(["delete-token", "insert-token", "bad-index",
                            "bad-rational", "repeat-header",
                            "drop-header"]),
       line_pick=st.integers(0, 10 ** 6), pick=st.integers(0, 10 ** 6),
       token=st.sampled_from(TOKENS))
def test_mutated_algebra_file_exits_cleanly(family, n, seed, how, line_pick,
                                            pick, token, tmp_path):
    n, text = _algebra(family, n, seed)
    lines = text.splitlines()
    path = tmp_path / "alg.txt"
    path.write_text(_mutate(lines, how, line_pick % len(lines), pick,
                            token, n))
    for verb, extra in VERBS:
        out, err = StringIO(), StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([verb, "--algebra", str(path), *extra(n)])
        assert code in (0, 1, 2), (verb, code)
        if code == 2:
            assert any(line.startswith("error: ")
                       for line in err.getvalue().splitlines()), (verb, err)


@pytest.mark.parametrize("seed, n, count", [(1, 6, 1), (0, 7, 0)])
def test_bricks_of_almost_abelian_algebras_of_dimension_6_and_7(seed, n,
                                                                count):
    """find_bricks returns within seconds here, and each brick f has
    X f = lambda_X f for every fundamental field X."""
    g = parse_algebra(bracket_text(n, almost_abelian(random.Random(seed), n)))
    fields = fundamental_fields(g, 2)
    bricks = find_bricks(fields)
    assert len(bricks) == count
    for b in bricks:
        assert len(b.eigenvalues) == len(fields)
        for X, lam in zip(fields, b.eigenvalues):
            assert vf_apply(X, b.poly) == b.poly * lam
