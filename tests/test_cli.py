import json
import subprocess
import sys

import pytest

PROC = """\
lts demo
init p0
alphabet a b
p0 a p1
p1 b p0
p2 tau p2
"""


def run_cli(*argv, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "rechml", *argv],
        capture_output=True, text=True, cwd=cwd,
    )


@pytest.fixture()
def proc_file(tmp_path):
    path = tmp_path / "demo.lts"
    path.write_text(PROC)
    return str(path)


def test_check_true_false_exit_codes(proc_file):
    done = run_cli("check", proc_file, "p0", "<a><b>tt")
    assert done.returncode == 0
    assert done.stdout == "sat=true\n"
    done = run_cli("check", proc_file, "p0", "<b>tt")
    assert done.returncode == 1
    assert done.stdout == "sat=false\n"


def test_check_json(proc_file):
    done = run_cli("check", proc_file, "p2", "[a]ff", "--format", "json")
    assert done.returncode == 1
    payload = json.loads(done.stdout)
    assert payload["verdict"] is False  # p2 diverges
    assert payload["formula"] == "[a]ff"


def test_may_must_verbs(proc_file):
    done = run_cli("may", proc_file, "p0", "a.w.0")
    assert done.returncode == 0
    assert done.stdout.splitlines()[0] == "may=true must=true"
    done = run_cli("must", proc_file, "p2", "a.w.0")
    assert done.returncode == 1
    assert done.stdout.splitlines()[0] == "may=false must=false"


def test_witness_traces(proc_file):
    done = run_cli("may", proc_file, "p0", "a.w.0", "--witness")
    lines = done.stdout.splitlines()
    assert lines[1] == "witness"
    assert lines[2] == "(p0|t0)"
    assert lines[-1] == "(p1|t1)"
    done = run_cli("must", proc_file, "p2", "a.w.0", "--witness")
    lines = done.stdout.splitlines()
    assert lines[1] == "counterexample"
    assert lines[-1].startswith("loops to")


def test_test_argument_from_lts_file(proc_file, tmp_path):
    tfile = tmp_path / "test.lts"
    tfile.write_text("lts t\ninit t0\nt0 a t1\nt1 omega t2\n")
    done = run_cli("may", proc_file, "p0", str(tfile))
    assert done.returncode == 0
    assert done.stdout.splitlines()[0] == "may=true must=true"


def test_compile_formula(proc_file):
    done = run_cli("compile-formula", "--mode", "must", "--formula", "[a]ff")
    assert done.returncode == 0
    assert done.stdout == "a.0 + tau.w.0\n"
    done = run_cli("compile-formula", "--mode", "may", "--formula", "<a>tt")
    assert done.stdout == "a.w.0\n"


def test_compile_test_round(proc_file):
    done = run_cli("compile-test", "--mode", "must", "--test", "a.w.0",
                   "--show-system")
    assert done.returncode == 0
    lines = done.stdout.splitlines()
    assert any(" = tt" in line for line in lines)
    # the last line is the eliminated formula
    assert lines[-1].startswith("min X_") or lines[-1].startswith("[")
    done = run_cli("compile-test", "--mode", "may", "--test", "a.w.0",
                   "--format", "json")
    payload = json.loads(done.stdout)
    assert payload["mode"] == "may"


def test_input_errors_exit_two(proc_file, tmp_path):
    assert run_cli("check", proc_file, "p0", "<a>").returncode == 2
    assert run_cli("check", proc_file, "nosuch", "tt").returncode == 2
    assert run_cli("check", str(tmp_path / "missing.lts"), "p0", "tt").returncode == 2
    assert run_cli("compile-formula", "--mode", "must",
                   "--formula", "<a>tt").returncode == 2
    bad = tmp_path / "bad.lts"
    bad.write_text("p0 a\n")
    assert run_cli("check", str(bad), "p0", "tt").returncode == 2


def test_cap_exceeded_exits_three(proc_file):
    done = run_cli("must", proc_file, "p0", "a.b.a.b.w.0",
                   "--max-test-states", "2")
    assert done.returncode == 3
    assert "error" in done.stderr


def test_deep_nesting_exits_three(proc_file, tmp_path):
    deep = tmp_path / "deep.hml"
    deep.write_text("[a]" * 120_000 + "tt\n")
    done = run_cli("check", proc_file, "p0", str(deep))
    assert done.returncode == 3
    assert done.stderr.startswith("error: ")
    assert "Traceback" not in done.stderr
    assert done.stdout == ""


def test_verify_small_and_deterministic():
    args = ("verify", "--seed", "42", "--trials", "12",
            "--property-trials", "4")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout.strip().splitlines()[-1].endswith("verdict=pass")


def test_verify_json_format():
    done = run_cli("verify", "--trials", "4", "--property-trials", "2",
                   "--format", "json")
    assert done.returncode == 0
    payload = json.loads(done.stdout)
    assert payload["summary"]["verdict"] == "pass"


def test_verify_mutation_exits_three():
    done = run_cli("verify", "--trials", "40", "--property-trials", "2",
                   "--self-test-mutation")
    assert done.returncode == 3
    assert "verdict=fail" in done.stdout
