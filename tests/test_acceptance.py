"""Acceptance gate: every advertised guarantee at its stated scale.

Each test prints a single pass line once its criterion holds, so a
verbose run reads as a checklist.  The heavy harness runs are shared
through module-scoped fixtures; wall-clock budgets are asserted where a
guarantee names one.
"""

import subprocess
import sys
import time

import pytest

from rechml import formulas as fm
from rechml import testterms as tm
from rechml.experiments import may_satisfy, must_satisfy, parallel_compose
from rechml.generators import TrialConfig, generate_test, spawn_rng
from rechml.harness import verify_theorems
from rechml.lts import TAU, Lts, OMEGA, visible
from rechml.semantics import interpret_states
from rechml.testterms import reachable_lts

import oracles

A = visible("a")
B = visible("b")


def announce(number, label):
    print(f"criterion {number} ({label}): PASS")


def timed(cfg, names, mutate=False):
    start = time.perf_counter()
    report = verify_theorems(cfg, mutate=mutate, only=set(names))
    return report, time.perf_counter() - start


@pytest.fixture(scope="module")
def default_cfg():
    return TrialConfig()  # seed 0, 500 trials, 200 property trials


@pytest.fixture(scope="module")
def theorem_runs(default_cfg):
    out = {}
    for name in ("must_formula_agreement", "must_test_agreement",
                 "may_formula_agreement", "may_test_agreement"):
        report, elapsed = timed(default_cfg, [name])
        out[name] = (report.checks[0], elapsed)
    return out


@pytest.fixture(scope="module")
def property_runs(default_cfg):
    names = ["bekic_equivalence", "fixpoint_prefix_property",
             "fixpoint_unfolding", "approximant_chain",
             "divergence_collapse", "acc_equivalence"]
    report, _ = timed(default_cfg, names)
    return {c.name: c for c in report.checks}


def test_criterion_01_must_formula_representation(theorem_runs, default_cfg):
    check, elapsed = theorem_runs["must_formula_agreement"]
    assert check.trials == 500
    assert check.failures == 0
    assert check.divergent_trials >= 0.30 * check.trials
    assert default_cfg.max_states <= 8
    assert default_cfg.alphabet_size <= 3
    assert default_cfg.max_formula_depth <= 5
    assert elapsed <= 120
    announce(1, "must formulas represent their compiled tests")


def test_criterion_02_must_tests_representable(theorem_runs):
    check, elapsed = theorem_runs["must_test_agreement"]
    assert check.trials == 500
    assert check.failures == 0
    assert elapsed <= 180
    announce(2, "every finitary test is must-representable")


def test_criterion_03_may_side(theorem_runs):
    formulas, t1 = theorem_runs["may_formula_agreement"]
    tests, t2 = theorem_runs["may_test_agreement"]
    assert formulas.trials == 500 and tests.trials == 500
    assert formulas.failures == 0 and tests.failures == 0
    assert t1 + t2 <= 180
    announce(3, "may representations in both directions")


def _example_family(count, depth, alphabet=2):
    cfg = TrialConfig(max_test_depth=depth, alphabet_size=alphabet)
    hand = [
        tm.Success(),
        tm.Nil(),
        tm.Prefix(A, tm.Success()),
        tm.Prefix(TAU, tm.Success()),
        tm.Sum(tm.Prefix(A, tm.Success()), tm.Prefix(B, tm.Nil())),
        tm.Mu("X", tm.Prefix(TAU, tm.Var("X"))),
        tm.Sum(tm.Success(), tm.Prefix(A, tm.Nil())),
    ]
    drawn = [generate_test(cfg, spawn_rng(271, "example_family", k))
             for k in range(count)]
    return hand + drawn


def _verdict(proc, state, term, mode):
    tlts, troot = reachable_lts(term)
    graph = parallel_compose(proc, tlts, state, troot)
    return must_satisfy(graph) if mode == "must" else may_satisfy(graph)


def test_criterion_04_counterexamples_reproduced():
    # (a) convergence is all that separates s from its divergent variant
    # under [a]ff, and may testing cannot see the difference
    lts = Lts(states=["s", "p"], transitions=[("p", TAU, "p")],
              alphabet=["a", "b"])
    box = fm.Box(A, fm.Ff())
    assert interpret_states(lts, box) == {"s"}
    for t in _example_family(60, 4):
        assert _verdict(lts, "s", t, "may") == _verdict(lts, "p", t, "may")

    # (b) the deadlocked process must-passes any test that succeeds at
    # once; the divergent one must-fails anything that does not
    immediate = [t for t in _example_family(80, 4)
                 if any(act == OMEGA for act, _ in oracles.test_step(t))]
    assert immediate
    for t in immediate:
        assert _verdict(lts, "s", t, "must")
    silent_free = []
    for t in _example_family(80, 4):
        tlts, troot = reachable_lts(t)
        root_omega = any(act == OMEGA for act, _ in oracles.test_step(t))
        has_tau = any(act == TAU for _, act, _ in tlts.transitions)
        if not root_omega and not has_tau:
            silent_free.append(t)
    assert silent_free
    for t in silent_free:
        assert not _verdict(lts, "p", t, "must")

    # (c) may testing cannot isolate a process that offers both actions
    # from the pair of processes offering one each
    branching = Lts(
        states=["s", "p", "q", "done"],
        transitions=[
            ("s", A, "done"), ("s", B, "done"),
            ("p", A, "done"), ("q", B, "done"),
        ],
        alphabet=["a", "b"],
    )
    both = fm.And(fm.Dia(A, fm.Tt()), fm.Dia(B, fm.Tt()))
    assert interpret_states(branching, both) == {"s"}
    for t in _example_family(200, 4):
        if _verdict(branching, "s", t, "may"):
            assert _verdict(branching, "p", t, "may") or \
                _verdict(branching, "q", t, "may")
    announce(4, "the three separating examples behave exactly as stated")


def test_criterion_05_bekic(property_runs):
    check = property_runs["bekic_equivalence"]
    assert check.trials == 200
    assert check.failures == 0
    announce(5, "simultaneous fixpoints equal their eliminations")


def test_criterion_06_fixpoint_properties(property_runs):
    assert property_runs["fixpoint_prefix_property"].trials == 200
    assert property_runs["fixpoint_prefix_property"].failures == 0
    assert property_runs["fixpoint_unfolding"].trials == 200
    assert property_runs["fixpoint_unfolding"].failures == 0
    announce(6, "least prefixed points and unfolding")


def test_criterion_07_approximants(property_runs):
    check = property_runs["approximant_chain"]
    assert check.trials == 200
    assert check.failures == 0
    announce(7, "approximant chains stabilize within the stated bound")


def test_criterion_08_divergence_collapse(property_runs):
    check = property_runs["divergence_collapse"]
    assert check.trials == 200
    assert check.failures == 0
    announce(8, "a satisfied divergent state forces the whole space")


def test_criterion_09_acc_equivalence(property_runs):
    check = property_runs["acc_equivalence"]
    assert check.trials == 200
    assert check.failures == 0
    announce(9, "Acc coincides with its modal spelling, empty set included")


def test_criterion_10_determinism(tmp_path):
    args = [sys.executable, "-m", "rechml", "verify",
            "--seed", "42", "--trials", "100"]
    first = subprocess.run(args, capture_output=True, text=True)
    second = subprocess.run(args, capture_output=True, text=True)
    assert first.returncode == 0
    assert first.stdout == second.stdout and first.stdout

    # counterexamples from a corrupted run re-fail through the CLI verbs
    report = verify_theorems(TrialConfig(trials=100, property_trials=2),
                             mutate=True)
    found = [c.counterexample for c in report.checks if c.counterexample]
    assert found
    for ce in found:
        lts_file = tmp_path / "ce.lts"
        lts_file.write_text(ce["lts"])
        check = subprocess.run(
            [sys.executable, "-m", "rechml", "check", str(lts_file),
             ce["state"], ce["formula"]],
            capture_output=True, text=True)
        assert (check.returncode == 0) == ce["formula_verdict"]
        verb = ce["mode"]
        tested = subprocess.run(
            [sys.executable, "-m", "rechml", verb, str(lts_file),
             ce["state"], ce["test"]],
            capture_output=True, text=True)
        assert (tested.returncode == 0) == ce["test_verdict"]
        assert ce["formula_verdict"] != ce["test_verdict"]
    announce(10, "byte-identical reports and standalone-refailing counterexamples")
