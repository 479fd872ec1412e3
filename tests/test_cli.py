"""Command-line interface: verbs, formats, exit codes, determinism."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from darbouxlie.cli import main


def run_cli(*args):
    from io import StringIO
    import contextlib
    buf = StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(args))
    return code, buf.getvalue()


def test_validate_catalog():
    code, out = run_cli("validate", "--algebra", "s1")
    assert code == 0 and "valid" in out


def test_validate_file(tmp_path):
    f = tmp_path / "alg.txt"
    f.write_text("dim 4\n[2,4] = -e1\n[3,4] = -e3\n")
    code, out = run_cli("validate", "--algebra", str(f))
    assert code == 0
    bad = tmp_path / "bad.txt"
    bad.write_text("dim 3\n[1,2] = e3\n[1,3] = e1\n")
    code, out = run_cli("validate", "--algebra", str(bad))
    assert code == 1


def test_input_errors_exit_2(tmp_path, capsys):
    code, _ = run_cli("validate", "--algebra", "missing-file.txt")
    assert code == 2
    code, _ = run_cli("validate", "--algebra", "s3", "--param", "alpha=2",
                      "--param", "beta=1")
    assert code == 2
    code, _ = run_cli("ybe", "--algebra", "s1", "--param", "oops")
    assert code == 2
    code, _ = run_cli("validate", "--algebra", "s9", "--param", "alpha=x")
    assert code == 2
    code, _ = run_cli("schouten", "--algebra", "s1", "e12+", "e3")
    assert code == 2    # ExprError
    big = tmp_path / "big.txt"
    big.write_text("dim 9\n")
    code, _ = run_cli("validate", "--algebra", str(big))
    assert code == 2    # DimensionMismatch
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 6 and all(e.startswith("error: ") for e in err)


#: [e1, e2] = e2 and [e2, e3] = e1 fail the Jacobi identity on (e1, e2, e3)
NOT_LIE = "dim 3\n[1,2] = e2\n[2,3] = e1\n"


@pytest.mark.parametrize("verb, extra", [
    ("derivations", []), ("invariants", []), ("schouten", ["e1", "e2"]),
    ("ybe", []), ("bricks", []), ("orbit-dim", ["e12"]),
    ("rank-at", ["1,0,0"]), ("center-ext", [])])
def test_file_that_fails_jacobi_exits_2(verb, extra, tmp_path, capsys):
    """Every verb but validate refuses the file with one error line that
    names the first violation; validate still reports it with exit 1."""
    f = tmp_path / "not_lie.txt"
    f.write_text(NOT_LIE)
    code, out = run_cli(verb, "--algebra", str(f), *extra)
    assert code == 2 and out == ""
    assert capsys.readouterr().err == (
        f"error: {f} is not a Lie algebra: "
        "Jacobi fails on (e1,e2,e3) in e1: 1\n")
    code, out = run_cli("validate", "--algebra", str(f))
    assert code == 1
    assert out.splitlines()[1:] == ["Jacobi fails on (e1,e2,e3) in e1: 1"]


@pytest.mark.parametrize("case", ["file", "param", "orbit-dim", "rank-at"])
def test_division_by_zero_exits_2(case, tmp_path, capsys):
    f = tmp_path / "alg.txt"
    f.write_text("dim 4\n[1,2] = 1/0*e3\n")
    argv = {"file": ["validate", "--algebra", str(f)],
            "param": ["validate", "--algebra", "s4", "--param", "alpha=1/0"],
            "orbit-dim": ["orbit-dim", "--algebra", "s1", "e12/0"],
            "rank-at": ["rank-at", "--algebra", "s1", "1/0,0,0,0,0,0"]}[case]
    code, out = run_cli(*argv)
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv, message", [
    (["orbit-dim", "--algebra", "s1", "e12^2"], "powers"),
    (["rank-at", "--algebra", "s1", "1,2"], "needs 6 coordinates, got 2"),
    (["rank-at", "--algebra", "s1", "1,2,3,4,5,6,7"],
     "needs 6 coordinates, got 7")],
    ids=["bivector-power", "short-point", "long-point"])
def test_malformed_point_or_bivector_exits_2(argv, message, capsys):
    code, out = run_cli(*argv)
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize("bivector, message", [
    ("(" * 250 + "e12" + ")" * 250, "too many nested parentheses"),
    ("0+" + "-" * 3000 + "e12", "nested too deeply")],
    ids=["250-parentheses", "3000-signs"])
def test_deeply_nested_bivector_exits_2(bivector, message, capsys):
    code, out = run_cli("orbit-dim", "--algebra", "s1", bivector)
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


def test_long_sum_bivector_answers():
    code, out = run_cli("orbit-dim", "--algebra", "s1",
                        "+".join(["e12"] * 1000))
    assert code == 0 and out.endswith("under Aut(s1): 1\n")


@pytest.mark.parametrize("argv", [
    ["orbit-dim", "--algebra", "s1", "e12*e34"],
    ["schouten", "--algebra", "s1", "e1*e2", "e3"]],
    ids=["orbit-dim", "schouten"])
def test_product_of_multivectors_exits_2(argv, capsys):
    code, out = run_cli(*argv)
    assert code == 2 and out == ""
    assert capsys.readouterr().err == \
        "error: multivectors multiply only by numbers\n"


@pytest.mark.parametrize("bivector, number", [
    ("e12+1", "1"), ("e12-1", "-1"), ("1+e12", "1"), ("1-e12", "1")])
def test_number_added_to_a_multivector_exits_2(bivector, number, capsys):
    code, out = run_cli("orbit-dim", "--algebra", "s1", bivector)
    assert code == 2 and out == ""
    assert capsys.readouterr().err == \
        f"error: cannot add {number} to a multivector\n"


@pytest.mark.parametrize("argv, message", [
    (["verify-tables", "--jobs", "0"], "--jobs must be at least 1, got 0"),
    (["verify-tables", "--jobs", "-3"], "--jobs must be at least 1, got -3"),
    (["bricks", "--algebra", "s5", "--param", "alpha=1/2", "--param",
      "alpha=1/3"], "--param alpha is given twice"),
    (["invariants", "--algebra", "s1", "--degree", "-1"],
     "--degree must be at least 0, got -1")],
    ids=["zero-jobs", "negative-jobs", "repeated-param", "negative-degree"])
def test_malformed_option_exits_2(argv, message, capsys):
    code, out = run_cli(*argv)
    assert code == 2 and out == ""
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("text, message", [
    ("dim-4\n[1,2] = e3\n", "line 1: expected 'dim N'"),
    ("dimx4\n[1,2] = e3\n", "line 1: expected 'dim N'"),
    ("dim=3\n[1,2] = e3\n", "line 1: expected 'dim N'"),
    ("dimension 4\n[1,2] = e3\n", "line 1: expected 'dim N'"),
    ("dim 4\n[1,2] = e3\ndim 5\n", "line 3: 'dim N' must be given once"),
    ("dim 4\ndim 4\n[1,2] = e3\n", "line 2: 'dim N' must be given once")],
    ids=["dim-minus", "dimx", "dim-equals", "dimension", "dim-after-bracket",
         "dim-twice"])
def test_malformed_dim_header_exits_2(text, message, tmp_path, capsys):
    f = tmp_path / "alg.txt"
    f.write_text(text)
    code, out = run_cli("validate", "--algebra", str(f))
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


def test_closed_stdout_exits_without_a_traceback():
    # the reader has gone before the first write, as with `| head -0`
    import os
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "darbouxlie.cli", "derivations",
             "--algebra", "s1"], stdout=write_end, stderr=subprocess.PIPE,
            text=True, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


@pytest.mark.parametrize("verb", ["verify-tables", "coboundary-classes"])
def test_catalog_only_verbs_reject_a_file(verb, tmp_path, capsys):
    f = tmp_path / "so3.txt"
    f.write_text("dim 3\n[1,2] = e3\n[2,3] = e1\n[3,1] = e2\n")
    code, out = run_cli(verb, "--algebra", str(f))
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert err.startswith(f"error: {verb} needs a catalog family stem")
    assert ".txt.txt" not in err


def _corrupted_data(tmp_path, monkeypatch):
    """A copy of the golden data whose s1 witness T(+,-) is not an
    automorphism (its first entry is 2)."""
    import shutil
    from darbouxlie.classify import data_dir
    alt = tmp_path / "data"
    shutil.copytree(data_dir(), alt)
    fam = alt / "families" / "s1.txt"
    text = fam.read_text()
    assert "T(+,-) : 1 0 0 0 ;" in text
    fam.write_text(text.replace("T(+,-) : 1 0 0 0 ;", "T(+,-) : 2 0 0 0 ;"))
    monkeypatch.setenv("DARBOUXLIE_DATA", str(alt))


@pytest.mark.parametrize("verb", ["verify-tables", "coboundary-classes"])
def test_failed_witness_exits_1(verb, tmp_path, monkeypatch, capsys):
    _corrupted_data(tmp_path, monkeypatch)
    code, out = run_cli(verb, "--algebra", "s1")
    assert code == 1 and out == ""
    assert capsys.readouterr().err == (
        "verification failed: s1: shipped matrix T(+,-) fails bracket "
        "preservation\n")


def test_failed_representation_check_exits_1(monkeypatch, capsys):
    from darbouxlie import centerext
    monkeypatch.setattr(centerext, "validate", lambda g: ["Jacobi fails"])
    code, out = run_cli("center-ext", "--algebra", "s1")
    assert code == 1 and out == ""
    assert capsys.readouterr().err == (
        "verification failed: extension is not a Lie algebra: "
        "Jacobi fails\n")


S3_SWAPPED = ("validate", "--algebra", "s3", "--param", "alpha=-1/2",
              "--param", "beta=1/2")


def test_warnings_are_shown():
    # s3 with alpha < beta is outside the catalog convention: main warns
    # and still answers as before
    with pytest.warns(UserWarning, match="convention is alpha >= beta"):
        code, out = run_cli(*S3_SWAPPED)
    assert code == 0
    assert out == "algebra s3(alpha=-1/2,beta=1/2): valid\n"
    proc = subprocess.run([sys.executable, "-m", "darbouxlie.cli",
                           *S3_SWAPPED], capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stdout == out
    assert "UserWarning: s3 with |alpha| = |beta|" in proc.stderr


def test_ybe_prints_reference_generators():
    code, out = run_cli("ybe", "--algebra", "s1")
    assert code == 0
    assert "{x5, x3*x4, x3*x6}" in out


def test_ybe_json_schema():
    code, out = run_cli("ybe", "--algebra", "s7", "--format", "json")
    data = json.loads(out)
    assert data["mcybe_reduced"] == [{"x5": "1"}, {"x6": "1"}]
    assert data["invariant3"] == [{"deg": 3, "terms": {"123": "1"}}]


def test_schouten_verb():
    code, out = run_cli("schouten", "--algebra", "s1", "e24", "e24")
    assert code == 0 and "-2*e124" in out


SO3 = "dim 3\n[1,2] = e3\n[2,3] = e1\n[3,1] = e2\n"


def test_schouten_and_orbit_dim_outside_dimension_4(tmp_path):
    f = tmp_path / "so3.txt"
    f.write_text(SO3)
    code, out = run_cli("schouten", "--algebra", str(f), "e1", "e2")
    assert code == 0 and out.strip() == "[e1, e2] = e3"
    code, out = run_cli("schouten", "--algebra", str(f), "e12", "e3")
    assert code == 0 and out.strip().endswith("= 0")
    # Aut(so(3)) acts on Λ²so(3) ≅ R³ by rotations: orbits are spheres
    code, out = run_cli("orbit-dim", "--algebra", str(f), "e12")
    assert code == 0 and out.strip().endswith(": 2")


def test_ybe_vacuous_mcybe_keeps_reduced_system_empty(tmp_path):
    # (Λ³so(3))^g is all of Λ³so(3), so every r solves the mCYBE; the
    # reduced system must not fall back to the CYBE's x1 = x2 = x3 = 0
    f = tmp_path / "so3.txt"
    f.write_text(SO3)
    code, out = run_cli("ybe", "--algebra", str(f))
    assert code == 0
    assert "mCYBE generators (reduced): {}" in out
    assert "mCYBE component span: {}" in out
    assert "CYBE components: {x1^2 + x2^2 + x3^2}" in out
    code, out = run_cli("ybe", "--algebra", str(f), "--format", "json")
    data = json.loads(out)
    assert data["mcybe_reduced"] == [] and data["mcybe_span"] == []
    assert data["cybe"] == [{"x1^2": "1", "x2^2": "1", "x3^2": "1"}]


def test_derivations_dimension_1(tmp_path):
    # no brackets, hence no Leibniz equations: der(g) = gl(1)
    f = tmp_path / "d1.txt"
    f.write_text("dim 1\n")
    code, out = run_cli("derivations", "--algebra", str(f))
    assert code == 0
    assert out.splitlines() == [f"derivation algebra of {f}: dimension 1",
                                "d1:", "  1"]
    code, out = run_cli("derivations", "--algebra", str(f), "--format", "json")
    data = json.loads(out)
    assert data["dimension"] == 1 and data["basis"] == [["1"]]


def test_derivations_s12():
    code, out = run_cli("derivations", "--algebra", "s12",
                        "--format", "json")
    data = json.loads(out)
    assert data["dimension"] == 4
    assert len(data["basis"]) == 4


def test_invariants_verb():
    code, out = run_cli("invariants", "--algebra", "n1", "--degree", "3",
                        "--format", "json")
    data = json.loads(out)
    assert data["dimension"] == 2
    # a degree above the dimension is valid: Λ^5 g = 0 for dim g = 4
    code, out = run_cli("invariants", "--algebra", "n1", "--degree", "5")
    assert code == 0 and out == "(Λ^5 g)^g of n1: dimension 0\n"


def test_orbit_dim_and_rank_at():
    code, out = run_cli("orbit-dim", "--algebra", "s1", "e12+e34")
    assert code == 0 and out.strip().endswith("4")
    code, out = run_cli("rank-at", "--algebra", "s1", "0,0,0,0,0,1")
    assert code == 0 and out.strip().endswith("3")


def test_bricks_verb():
    code, out = run_cli("bricks", "--algebra", "s6")
    assert code == 0 and "x5" in out and "x6" in out


def test_center_ext():
    code, out = run_cli("center-ext", "--algebra", "s1", "--format", "json")
    data = json.loads(out)
    assert data["feasible"] and data["alphas"] == ["1", "1", "0", "0"]
    assert len(data["matrices"]) == 4


def test_center_ext_infeasible(tmp_path):
    f = tmp_path / "g6.txt"
    f.write_text("dim 6\n[2,3] = e1\n[5,1] = e1\n[5,2] = e2\n"
                 "[6,1] = e1\n[6,3] = e3\n[6,5] = e4\n")
    code, out = run_cli("center-ext", "--algebra", str(f))
    assert code == 1 and "no admissible" in out


def test_darboux_verify_single_tree():
    code, out = run_cli("darboux-verify", "--tree", "s1")
    assert code == 0 and "PASS" in out


def test_verify_tables_single_family():
    code, out = run_cli("verify-tables", "--algebra", "s1")
    assert code == 0
    assert "ALL PASS" in out


def test_coboundary_classes_s1():
    code, out = run_cli("coboundary-classes", "--algebra", "s1")
    assert code == 0
    assert "5 classes witnessed" in out
    assert "UNWITNESSED" not in out


def test_deterministic_output():
    a = run_cli("ybe", "--algebra", "s6", "--format", "json")
    b = run_cli("ybe", "--algebra", "s6", "--format", "json")
    assert a == b
    c = run_cli("derivations", "--algebra", "s9", "--param", "alpha=2")
    d = run_cli("derivations", "--algebra", "s9", "--param", "alpha=2")
    assert c == d


def test_out_file(tmp_path):
    target = tmp_path / "out.json"
    code, out = run_cli("ybe", "--algebra", "s1", "--format", "json",
                        "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["algebra"] == "s1"


def test_console_script_entry():
    proc = subprocess.run(
        [sys.executable, "-m", "darbouxlie.cli", "validate",
         "--algebra", "n1"], capture_output=True, text=True)
    assert proc.returncode == 0


def test_data_dir_env_override(tmp_path, monkeypatch):
    import shutil
    from darbouxlie.classify import data_dir
    src = data_dir()
    alt = tmp_path / "data"
    shutil.copytree(src, alt)
    # tweak a golden brick line so the override is observable
    fam = alt / "families" / "s1.txt"
    fam.write_text(fam.read_text().replace("x5 x6", "x5"))
    monkeypatch.setenv("DARBOUXLIE_DATA", str(alt))
    from darbouxlie.classify import load_family, verify_family_bundle
    assert [b.text for b in load_family("s1").bricks] == ["x5"]
    assert not verify_family_bundle("s1")[0].ok
    monkeypatch.delenv("DARBOUXLIE_DATA")
    assert [b.text for b in load_family("s1").bricks] == ["x5", "x6"]


def test_verify_tables_parallel_jobs():
    code, out = run_cli("verify-tables", "--algebra", "s8", "--jobs", "2")
    assert code == 0 and "ALL PASS" in out


class PoolStarted(Exception):
    pass


def test_verify_tables_starts_at_most_one_worker_per_family(monkeypatch):
    """A fork-based pool starts all of its workers at once, so --jobs is
    capped at the number of family files; the recording pool stops the
    run before any work is done."""
    import concurrent.futures

    from darbouxlie.classify import FAMILY_FILES
    started = []

    def pool(max_workers):
        started.append(max_workers)
        raise PoolStarted
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)
    for argv in (["--jobs", "1000"], ["--algebra", "s8", "--jobs", "5"],
                 ["--algebra", "s3", "--jobs", "3"]):
        with pytest.raises(PoolStarted):
            run_cli("verify-tables", *argv)
    assert started == [len(FAMILY_FILES), 2, 3]


def test_verify_tables_reads_each_schouten_table_once(monkeypatch):
    """``--algebra all`` checks 13 algebras against the three bracket
    tables and reads each table once; the family-file stage is stubbed
    out, since it reads no bracket table."""
    from darbouxlie import classify, cli
    loads = []
    real = classify.load_schouten_table

    def load(*spec):
        loads.append(spec[0])
        return real(*spec)
    monkeypatch.setattr(classify, "load_schouten_table", load)
    monkeypatch.setattr(cli, "_verify_one_family",
                        lambda stem: (True, [], []))
    code, out = run_cli("verify-tables", "--algebra", "all")
    assert code == 0 and out.count("schouten tables ") == 13
    assert "FAIL" not in out
    assert sorted(loads) == sorted(f for f, _, _ in classify.SCHOUTEN_TABLES)


@pytest.mark.slow
def test_verify_tables_all_aggregate():
    code, out = run_cli("verify-tables", "--algebra", "all", "--jobs", "4")
    assert code == 0
    assert "ALL PASS" in out
    assert "errata" in out  # the recorded printed-table errata are surfaced


@pytest.mark.parametrize("workload, extra", [
    pytest.param("tables", (), id="tables"),
    pytest.param("tables", ("--jobs", "2"), id="tables-jobs-2"),
    pytest.param("trees", (), id="trees"),
    pytest.param("classes", (), id="classes")])
def test_batch_json_output_matches_the_recorded_digest(workload, extra,
                                                        monkeypatch):
    """``verify-tables --algebra all``, ``darboux-verify --tree all`` and
    ``coboundary-classes`` with ``--format json`` print exactly the bytes
    whose sha256 the benchmark records for them (``perfbench/batch.py``).
    With ``--jobs 2`` the family files run in forked workers, each with
    its own cached contexts and points, and the bytes are the same."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    from perfbench.batch import VERBS
    argv, digest, _ = VERBS[workload]
    code, out = run_cli(*argv, *extra, "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
