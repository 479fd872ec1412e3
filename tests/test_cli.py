"""Command-line interface: verbs, formats, exit codes, determinism."""

import json
import subprocess
import sys

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


def test_input_errors_exit_2():
    code, _ = run_cli("validate", "--algebra", "missing-file.txt")
    assert code == 2
    code, _ = run_cli("validate", "--algebra", "s3", "--param", "alpha=2",
                      "--param", "beta=1")
    assert code == 2
    code, _ = run_cli("ybe", "--algebra", "s1", "--param", "oops")
    assert code == 2


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
    assert load_family("s1").bricks == ["x5"]
    assert not verify_family_bundle("s1")[0].ok
    monkeypatch.delenv("DARBOUXLIE_DATA")
    assert load_family("s1").bricks == ["x5", "x6"]


def test_verify_tables_parallel_jobs():
    code, out = run_cli("verify-tables", "--algebra", "s8", "--jobs", "2")
    assert code == 0 and "ALL PASS" in out


@pytest.mark.slow
def test_verify_tables_all_aggregate():
    code, out = run_cli("verify-tables", "--algebra", "all", "--jobs", "4")
    assert code == 0
    assert "ALL PASS" in out
    assert "errata" in out  # the recorded printed-table errata are surfaced
