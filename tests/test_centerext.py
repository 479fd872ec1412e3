"""Grading extensions and faithful matrix representations."""

from fractions import Fraction

import pytest

from darbouxlie.centerext import build_rep, extend, solve_grading
from darbouxlie.exactmath import RatMatrix, rank
from darbouxlie.liealg import abelian, catalog, center, from_brackets, validate
from oracles import commutator


def test_s1_grading_matches_printed_choice():
    g = catalog("s1")
    sol = solve_grading(g)
    assert sol is not None
    assert sol.alphas == (1, 1, 0, 0)


def test_s1_printed_matrices():
    g = catalog("s1")
    rep = build_rep(g, solve_grading(g))
    R = rep.matrices
    def M(entries):
        m = [[Fraction(0)] * 5 for _ in range(5)]
        for (i, j), v in entries.items():
            m[i - 1][j - 1] = Fraction(v)
        return RatMatrix(m)
    assert R[0] == M({(1, 5): -1})
    assert R[1] == M({(1, 4): -1, (2, 5): -1})
    assert R[2] == M({(3, 4): -1})
    assert R[3] == M({(1, 2): 1, (3, 3): 1})
    # the printed commutation relations
    assert commutator(R[3], R[1]) == R[0]
    assert commutator(R[3], R[2]) == R[2]


def test_all_nontrivial_center_members_feasible():
    feasible = []
    for fam in ("s1", "s2", "s3", "s4", "s5", "s6", "s7", "s8", "s9",
                "s10", "s11", "s12", "n1"):
        params = {"s3": dict(alpha=Fraction(1, 2), beta=Fraction(1, 3)),
                  "s4": dict(alpha=2), "s5": dict(alpha=1, beta=0),
                  "s8": dict(alpha=Fraction(1, 2)),
                  "s9": dict(alpha=1)}.get(fam, {})
        g = catalog(fam, **params)
        if center(g):
            sol = solve_grading(g)
            assert sol is not None, fam
            rep = build_rep(g, sol)
            assert len(rep.matrices) == 4
            feasible.append(fam)
    assert feasible == ["s1", "s6", "s7", "n1"]


def test_counterexample_six_dimensional():
    br = {(1, 2): [1, 0, 0, 0, 0, 0], (4, 0): [1, 0, 0, 0, 0, 0],
          (4, 1): [0, 1, 0, 0, 0, 0], (5, 0): [1, 0, 0, 0, 0, 0],
          (5, 2): [0, 0, 1, 0, 0, 0], (5, 4): [0, 0, 0, 1, 0, 0]}
    g = from_brackets(6, br, name="s6231")
    assert validate(g) == []
    assert center(g) == [(0, 0, 0, 1, 0, 0)]
    assert solve_grading(g) is None


def test_counterexample_seven_dimensional():
    br = {(0, 1): [0, 0, 1, 0, 0, 0, 0], (0, 2): [0, 0, 0, 1, 0, 0, 0],
          (0, 3): [0, 0, 0, 0, 1, 0, 0], (0, 5): [0, 0, 0, 0, 0, 0, 1],
          (1, 2): [0, 0, 0, 0, 0, 1, 0], (1, 3): [0, 0, 0, 0, 0, 0, 1],
          (1, 4): [0, 0, 0, 0, 0, 0, 1], (1, 5): [0, 0, 0, 0, 0, 0, 1],
          (2, 3): [0, 0, 0, 0, 0, 0, -1]}
    g = from_brackets(7, br, name="case7I")
    assert validate(g) == []
    assert center(g) == [(0, 0, 0, 0, 0, 0, 1)]
    assert solve_grading(g) is None


def test_abelian_representation():
    g = abelian(3)
    sol = solve_grading(g)
    assert sol is not None and all(a != 0 for a in sol.alphas)
    rep = build_rep(g, sol)
    n = g.dim
    for i, m in enumerate(rep.matrices):
        # single entry -alpha_i at (i, n+1)
        for r in range(n + 1):
            for c in range(n + 1):
                want = -sol.alphas[i] if (r, c) == (i, n) else 0
                assert m[r, c] == want


def test_extension_is_lie_algebra():
    for fam in ("s1", "s6", "s7", "n1"):
        g = catalog(fam)
        gt = extend(g, solve_grading(g))
        assert validate(gt) == []


def test_rep_invariants_verified():
    g = catalog("s7")
    rep = build_rep(g, solve_grading(g))
    flat = RatMatrix([m.flat() for m in rep.matrices])
    assert rank(flat) == 4  # faithful


def test_trivial_center_graceful():
    g = catalog("s2")
    sol = solve_grading(g)
    assert sol is not None
    rep = build_rep(g, sol)
    assert len(rep.matrices) == 4


def test_build_rep_still_rejects_a_commutation_fidelity_failure(monkeypatch):
    """The fidelity check on the integer matrices D·R_i stays live: with
    the extension's Jacobi check switched off, alpha = (1, 1, 1) is no
    grading of [e1, e2] = 2/3 e3 (1 + 1 != 1), and build_rep rejects the
    pair (e1, e2).  With alpha zero on the center, faithfulness fails."""
    from darbouxlie import centerext
    g = from_brackets(3, {(0, 1): [0, 0, Fraction(2, 3)]})
    zg = tuple(center(g))
    monkeypatch.setattr(centerext, "validate", lambda gt: [])
    bad = centerext.GradingSolution(tuple(map(Fraction, (1, 1, 1))), zg)
    with pytest.raises(centerext.RepresentationInvalid,
                       match=r"commutation fidelity fails on \(e1, e2\)"):
        build_rep(g, bad)
    good = solve_grading(g)
    assert good.alphas[0] + good.alphas[1] == good.alphas[2] != 0
    assert len(build_rep(g, good).matrices) == 3
    flat = centerext.GradingSolution(tuple(map(Fraction, (1, -1, 0))), zg)
    with pytest.raises(centerext.RepresentationInvalid,
                       match="not faithful"):
        build_rep(g, flat)
