import hashlib
import json
import os
import random
import subprocess
import sys

import pytest

from rechml import cli
from rechml import formulas as fm

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
        capture_output=True, text=True, cwd=cwd, timeout=120,
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
    # one equation per test state, named after it, then the eliminated formula
    assert done.stdout == (
        "X_t0 = [a]X_t1 /\\ Acc{a}\n"
        "X_t1 = tt\n"
        "X_t2 = ff\n"
        "min X_t0. [a](min X_t1. tt) /\\ Acc{a}\n"
    )
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


def test_missing_test_lts_file_exits_two(proc_file, tmp_path):
    # no test term ends in .lts, so the argument names a file that is not there
    missing = str(tmp_path / "missing.lts")
    for argv in (("compile-test", "--mode", "must", "--test", missing),
                 ("must", proc_file, "p0", missing),
                 ("may", proc_file, "p0", missing)):
        done = run_cli(*argv)
        assert done.returncode == 2, argv
        assert done.stderr == f"error: no such file: {missing}\n", argv


def test_verify_rejects_out_of_range_config():
    done = run_cli("verify", "--max-sim-vars", "0")
    assert done.returncode == 2
    assert "max_sim_vars" in done.stderr
    assert "randrange" not in done.stderr
    assert done.stdout == ""


def test_cap_exceeded_exits_three(proc_file):
    done = run_cli("must", proc_file, "p0", "a.b.a.b.w.0",
                   "--max-test-states", "2")
    assert done.returncode == 3
    assert "error" in done.stderr


def test_config_cap_exits_three(tmp_path):
    # a 100-state a-ring against a 2-state test: 200 configurations
    ring = tmp_path / "ring.lts"
    ring.write_text("".join(f"p{i} a p{(i + 1) % 100}\n" for i in range(100)))
    for verb in ("may", "must"):
        done = run_cli(verb, str(ring), "p0", "mu X. a.X", "--max-configs", "199")
        assert done.returncode == 3
        assert done.stderr == ("error: the experiment needs the moves of more than 199 "
                               "configurations (the --max-configs cap)\n")
        assert done.stdout == ""
        done = run_cli(verb, str(ring), "p0", "mu X. a.X", "--max-configs", "200", "--witness")
        assert done.returncode == 1 and done.stderr == ""
    done = run_cli("must", str(ring), "p0", "mu X. a.X", "--max-configs", "0")
    assert done.returncode == 2
    assert done.stderr == "error: max_configs must be at least 1, got 0\n"


def test_nonpositive_test_state_cap_exits_two(proc_file, tmp_path):
    done = run_cli("must", proc_file, "p0", "a.w.0", "--max-test-states", "0")
    assert done.returncode == 2
    assert "max_states" in done.stderr
    assert done.stdout == ""
    # a test .lts file is not explored, but the cap is checked all the same
    test_file = tmp_path / "t.lts"
    test_file.write_text("init t0\nt0 a t1\nt1 omega t1\n")
    for argv in (("must", proc_file, "p0", str(test_file), "--max-test-states", "0"),
                 ("may", proc_file, "p0", str(test_file), "--max-test-states", "-5"),
                 ("compile-test", "--mode", "must", "--test", str(test_file), "--max-test-states", "0")):
        done = run_cli(*argv)
        cap = argv[-1]
        assert (done.returncode, done.stdout) == (2, ""), argv
        assert done.stderr == f"error: max_states must be at least 1, got {cap}\n", argv


def test_deep_nesting_exits_three(proc_file, tmp_path):
    deep = tmp_path / "deep.hml"
    deep.write_text("[a]" * 120_000 + "tt\n")
    done = run_cli("check", proc_file, "p0", str(deep))
    assert done.returncode == 3
    assert done.stderr.startswith("error: ")
    assert "Traceback" not in done.stderr
    assert done.stdout == ""


def test_nesting_depth_of_the_readme_table(tmp_path):
    # nested boxes as deep as the README's limits table says each version
    # answers: parsed, evaluated and printed back one frame per level
    depth = 60_000 if sys.version_info >= (3, 11) else 8_000
    loop = tmp_path / "loop.lts"
    loop.write_text("lts loop\ninit p0\np0 a p0\n")
    deep = tmp_path / "deep.hml"
    text = "[a]" * depth + "tt"
    deep.write_text(text + "\n")
    done = run_cli("check", str(loop), "p0", str(deep), "--format", "json")
    assert done.returncode == 0, done.stderr[-500:]
    payload = json.loads(done.stdout)
    assert payload["formula"] == text and payload["verdict"] is True


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


def test_verify_help_frozen():
    # sha256 of the verify help at 80 columns, recorded while the options
    # were read from TrialConfig as a dataclass
    done = subprocess.run([sys.executable, "-m", "rechml", "verify", "--help"],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "COLUMNS": "80"})
    assert done.returncode == 0
    digest = hashlib.sha256(done.stdout.encode()).hexdigest()
    assert digest == "a2469b98301797b6f0f2f4fde1a2db3dc0c40c9d838ccf406705f4e39dd112c3"


def test_cli_import_leaves_heavy_modules_unloaded():
    # these cost about 16 ms to import in a fresh process; the CLI loads
    # json and hashlib only where it uses them, and defines no dataclass
    code = ("import rechml.cli, sys; "
            "print([m for m in ('dataclasses', 'inspect', 'hashlib', 'json') if m in sys.modules])")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


def test_lazily_loaded_outputs_frozen(proc_file):
    # recorded while json and hashlib were imported with the package
    done = run_cli("check", proc_file, "p0", "<a><b>tt", "--format", "json")
    assert done.stdout == '{"command": "check", "formula": "<a><b>tt", "state": "p0", "verdict": true}\n'
    expected = {
        "text": "b4429cb0e7e811b43a191a4efceb7f9777093041fbd7f05255dc85d72de48761",
        "json": "ce7e26a9dd126b4cf8bbb45bd06df280c5d54ee697dcc2608553c882af3fedbe",
    }
    for fmt, digest in expected.items():
        done = run_cli("verify", "--trials", "1", "--property-trials", "1", "--format", fmt)
        assert done.returncode == 0
        assert hashlib.sha256(done.stdout.encode()).hexdigest() == digest, fmt


def test_verify_mutation_exits_three():
    done = run_cli("verify", "--trials", "40", "--property-trials", "2",
                   "--self-test-mutation")
    assert done.returncode == 3
    assert "verdict=fail" in done.stdout


def _dense_test_lts(n):
    """A test system with a move between every ordered pair of its n states
    and visible moves from two of them into a success sink."""
    labels = ("a", "b", "c", "tau")
    lines = ["lts dense", "init q0"]
    for i in range(n):
        lines += [f"q{i} {labels[(i * n + j) % 4]} q{j}" for j in range(n) if j != i]
        if i in (n // 2, n - 1):
            lines.append(f"q{i} {labels[i % 3]} ok")
    lines.append("ok omega ok")
    return "\n".join(lines) + "\n"


def test_limits_exit_cleanly(tmp_path):
    # each expected code holds on every supported Python: the inputs that
    # must answer stay well inside the recursion limit of each version
    files = {
        "loop.lts": "lts loop\ninit p0\np0 a p0\n",
        "sum": " + ".join(["a.w.0"] * 2000) + "\n",
        "chain": "a." * 500 + "w.0\n",
        "long": "a." * 20_000 + "w.0\n",
        "dense.lts": _dense_test_lts(7),
    }
    path = {}
    for name, text in files.items():
        path[name] = str(tmp_path / name)
        (tmp_path / name).write_text(text)
    cases = [
        (("must", path["loop.lts"], "p0", path["sum"]), 0, ""),
        (("must", path["loop.lts"], "p0", path["chain"]), 0, ""),
        # the state cap, or on Python 3.10 the recursion limit of the parser
        (("must", path["loop.lts"], "p0", path["long"], "--max-test-states", "3"), 3, ""),
        (("compile-test", "--mode", "must", "--test", path["dense.lts"]), 3, "--show-system"),
    ]
    for argv, code, message in cases:
        done = run_cli(*argv)
        assert done.returncode == code, (argv, done.returncode, done.stderr[-500:])
        assert "Traceback" not in done.stderr
        if code == 3:
            assert len(done.stderr.splitlines()) == 1
            assert done.stderr.startswith("error: ")
            assert message in done.stderr
            assert len(done.stderr) < 400  # frontier terms are clipped
    # the equation system has one line per state and is printed before the cap
    done = run_cli("compile-test", "--mode", "must", "--test", path["dense.lts"], "--show-system")
    assert done.returncode == 3
    assert len(done.stdout.splitlines()) == 8


def success_root_dense_lts(n, seed):
    """A seeded dense test system of n states whose root q0 succeeds: each
    ordered pair of states gets an a or b move with probability 1/2, and
    each other state succeeds with probability 3/10 and gets one tau move
    with probability 3/10."""
    rng = random.Random(seed)
    lines = ["lts dense", "init q0", "q0 omega q0"]
    for i in range(n):
        lines += [f"q{i} {rng.choice('ab')} q{j}" for j in range(n) if rng.random() < 0.5]
        if i and rng.random() < 0.3:
            lines.append(f"q{i} omega q{i}")
        if rng.random() < 0.3:
            lines.append(f"q{i} tau q{rng.randrange(n)}")
    return "\n".join(lines) + "\n"


def test_success_root_skips_the_other_equations(tmp_path):
    # the root's equation is tt, so no other equation enters the result;
    # eliminating the other 29 ran past a minute before they were dropped
    path = tmp_path / "dense.lts"
    path.write_text(success_root_dense_lts(30, 1))
    for mode in ("must", "may"):
        done = subprocess.run(
            [sys.executable, "-m", "rechml", "compile-test", "--mode", mode, "--test", str(path)],
            capture_output=True, text=True, timeout=20,
        )
        assert (done.returncode, done.stdout, done.stderr) == (0, "min X_q0. tt\n", "")
    # --show-system still prints every equation
    done = run_cli("compile-test", "--mode", "must", "--test", str(path), "--show-system")
    assert done.returncode == 0
    assert len(done.stdout.splitlines()) == 31


def test_elimination_cap_ends_a_dense_test(tmp_path, monkeypatch, capsys):
    # without the root's success its equation reaches the other 35, and
    # eliminating them ran past timeout 60 before elimination was capped
    path = tmp_path / "dense.lts"
    path.write_text(success_root_dense_lts(36, 1).replace("q0 omega q0\n", ""))
    for mode in ("must", "may"):
        done = subprocess.run(
            [sys.executable, "-m", "rechml", "compile-test", "--mode", mode, "--test", str(path)],
            capture_output=True, text=True, timeout=10,
        )
        assert done.returncode in (0, 3), done.stderr[-500:]
        if done.returncode == 3:
            assert done.stderr.startswith("error: ") and len(done.stderr.splitlines()) == 1
    # the cap ends the elimination, not the printing of the system before it
    monkeypatch.setattr(fm, "MAX_ELIMINATION_NODES", 1000)
    code = cli.main(["compile-test", "--mode", "must", "--test", str(path), "--show-system"])
    out, err = capsys.readouterr()
    assert code == 3
    assert err == "error: Bekic elimination needs more than 1000 formula nodes\n"
    variables = [line.split(" = ")[0] for line in out.splitlines()]
    assert sorted(variables) == sorted(f"X_q{i}" for i in range(36))


def test_nested_binders_hit_the_cap(tmp_path):
    # every walk keeps one scope for all binders; a scope copied at each of
    # the 10000 binders took gigabytes.  On Python 3.10 the recursion limit
    # of the parser may give the exit 3 instead of the cap.
    loop = tmp_path / "loop.lts"
    loop.write_text("lts loop\ninit p0\np0 a p0\n")
    nested = tmp_path / "nested"
    nested.write_text("".join(f"mu X{i}. a." for i in range(10_000)) + "(w.0 + X0)\n")
    done = run_cli("must", str(loop), "p0", str(nested), "--max-test-states", "3")
    assert done.returncode == 3, done.stderr[-500:]
    assert "Traceback" not in done.stderr
    assert len(done.stderr.splitlines()) == 1
    assert done.stderr.startswith("error: ")
    assert len(done.stderr) < 400


def _main(argv, capsys):
    """(exit code, stdout) of one in-process call of cli.main."""
    try:
        code = cli.main(argv)
    except SystemExit as done:  # argparse rejects malformed argv this way
        code = done.code
    return code, capsys.readouterr().out


def test_parser_is_built_once_and_answers_as_a_fresh_one(proc_file, capsys):
    sequence = [
        ["check", proc_file, "p0", "<a>tt"],
        ["check", proc_file],  # malformed: argparse exits 2
        ["must", proc_file, "p0", "b.w.0", "--witness"],
        ["verify", "--seed", "5", "--trials", "3", "--property-trials", "1"],
    ]
    fresh = []
    for argv in sequence:
        cli._build_parser.cache_clear()
        fresh.append(_main(argv, capsys))
    assert [code for code, _ in fresh] == [0, 2, 1, 0]
    cli._build_parser.cache_clear()
    assert [_main(argv, capsys) for argv in sequence] == fresh
    assert cli._build_parser.cache_info().misses == 1
    for argv in (["--help"], ["must", "--help"]):
        assert _main(argv, capsys) == (0, run_cli(*argv).stdout)


@pytest.mark.parametrize("name, argv", [
    ("interpret", ["check", "{lts}", "p0", "tt"]),
    ("parallel_compose", ["must", "{lts}", "p0", "a.w.0"]),
    ("formula_to_must_test", ["compile-formula", "--mode", "must", "--formula", "[a]ff"]),
    ("bekic_eliminate", ["compile-test", "--mode", "must", "--test", "a.w.0"]),
    ("verify_theorems", ["verify"]),
])
def test_memory_error_exits_three(name, argv, proc_file, monkeypatch, capsys):
    # each verb runs out of memory in its main step: one error line, exit 3
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, name, exhausted)
    assert cli.main([arg.replace("{lts}", proc_file) for arg in argv]) == 3
    assert capsys.readouterr() == ("", "error: out of memory\n")
