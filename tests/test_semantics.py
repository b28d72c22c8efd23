import subprocess
import sys

import pytest

from rechml import formulas as fm
from rechml.generators import TrialConfig, generate_formula, generate_lts, spawn_rng
from rechml.lts import TAU, Lts, visible
from rechml.semantics import (
    EvalStats,
    interpret,
    interpret_simultaneous,
    interpret_simultaneous_vector,
    interpret_states,
    satisfies,
)

import oracles

A = visible("a")
B = visible("b")


def fork_fixture():
    """dead, a/b fork, one-armed pa/pb, a diverging state and a diverging
    fork."""
    return Lts(
        states=["dead", "fork", "pa", "pb", "div", "divfork"],
        transitions=[
            ("fork", A, "dead"),
            ("fork", B, "dead"),
            ("pa", A, "dead"),
            ("pb", B, "dead"),
            ("div", TAU, "div"),
            ("divfork", TAU, "divfork"),
            ("divfork", A, "dead"),
            ("divfork", B, "dead"),
        ],
        alphabet=["a", "b"],
    )


def names(lts, mask):
    return set(lts.names_of(mask))


def test_box_is_convergence_sensitive():
    lts = fork_fixture()
    # [a]ff holds exactly where a is refused and the state converges
    assert interpret_states(lts, fm.Box(A, fm.Ff())) == {"dead", "pb"}
    # [tau]tt carves out precisely the converging states
    assert interpret_states(lts, fm.Box(TAU, fm.Tt())) == \
        {"dead", "fork", "pa", "pb"}


def test_diamond_ignores_divergence():
    lts = fork_fixture()
    assert interpret_states(lts, fm.Dia(A, fm.Tt())) == {"fork", "pa", "divfork"}
    assert satisfies(lts, "divfork", fm.Dia(A, fm.Tt()))
    assert not satisfies(lts, "div", fm.Dia(A, fm.Tt()))


def test_acc_frozen():
    lts = fork_fixture()
    assert interpret_states(lts, fm.Acc({"a", "b"})) == {"fork", "pa", "pb"}
    assert interpret_states(lts, fm.Acc({"a"})) == {"fork", "pa"}
    # the empty acceptance set is unsatisfiable: closures are never empty
    assert interpret_states(lts, fm.Acc(set())) == set()


def test_tau_modalities_see_whole_tau_chain():
    # s0 and s1 offer a, but both tau-reach the stable, a-refusing s2 in
    # one or two steps; one reflexive strong tau step would miss s2 from s0
    lts = Lts(
        states=["s0", "s1", "s2"],
        transitions=[("s0", TAU, "s1"), ("s1", TAU, "s2"),
                     ("s0", A, "s0"), ("s1", A, "s1")],
        alphabet=["a"],
    )
    assert interpret_states(lts, fm.Acc({"a"})) == set()
    assert interpret_states(lts, fm.Box(TAU, fm.Dia(A, fm.Tt()))) == set()
    assert interpret_states(lts, fm.Dia(TAU, fm.Box(A, fm.Ff()))) == {"s0", "s1", "s2"}


def test_min_reaches_through_tau():
    lts = Lts(
        states=["s0", "s1", "s2"],
        transitions=[("s0", TAU, "s1"), ("s1", A, "s2")],
        alphabet=["a"],
    )
    phi = fm.Min("X", fm.Or(fm.Dia(A, fm.Tt()), fm.Dia(TAU, fm.Var("X"))))
    assert interpret_states(lts, phi) == {"s0", "s1"}


def test_max_infinite_visible_path():
    lts = Lts(
        states=["s0", "s1", "s2"],
        transitions=[("s0", A, "s1"), ("s1", A, "s0"), ("s2", A, "s1")],
        alphabet=["a"],
    )
    phi = fm.Max("X", fm.Dia(A, fm.Var("X")))
    assert interpret_states(lts, phi) == {"s0", "s1", "s2"}
    chopped = Lts(states=["t0", "t1"], transitions=[("t0", A, "t1")],
                  alphabet=["a"])
    assert interpret_states(chopped, phi) == set()


def test_environment_accepts_names_or_masks():
    lts = fork_fixture()
    phi = fm.Dia(A, fm.Var("X"))
    by_names = interpret(lts, phi, {"X": ["dead"]})
    by_mask = interpret(lts, phi, {"X": lts.mask_of(["dead"])})
    assert by_names == by_mask
    assert names(lts, by_names) == {"fork", "pa", "divfork"}


def test_unbound_variable_raises():
    lts = fork_fixture()
    with pytest.raises(fm.FormulaError):
        interpret(lts, fm.Var("X"))


# Interprets min X0. [a](X0 /\ min X1. [a](X1 /\ ...)) with n binders and
# prints the denotation and the growth of peak RSS in kB.  The process is
# fresh, so that its peak is this interpretation's alone, and the walk runs
# in a thread with a stack of its own, since Python 3.10 spends C stack on
# every call (four per binder).
_NESTED_BINDERS = """
import resource, sys, threading
from rechml import formulas as fm
from rechml.lts import TAU, Lts, visible
from rechml.semantics import interpret

n = int(sys.argv[1])
a = visible("a")
phi = fm.Tt()
for i in reversed(range(n)):
    phi = fm.Min(f"X{i}", fm.Box(a, fm.And(fm.Var(f"X{i}"), phi)))
lts = Lts(states=["p", "q", "d"], transitions=[("p", a, "q"), ("d", TAU, "d")],
          alphabet=["a"])
sys.setrecursionlimit(5 * n + 1000)
threading.stack_size(256 << 20)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
got = []
worker = threading.Thread(target=lambda: got.append(interpret(lts, phi)))
worker.start()
worker.join()
print(got[0], resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""


def test_nested_binders_share_one_environment():
    # a copied environment per binder would hold about n*n/2 entries:
    # over 100 MB at 3000 binders
    done = subprocess.run([sys.executable, "-c", _NESTED_BINDERS, "3000"],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    mask, grown_kb = map(int, done.stdout.split())
    assert mask == 0b011
    assert grown_kb < 16 << 10, grown_kb


def test_stats_are_recorded():
    lts = fork_fixture()
    stats = EvalStats()
    phi = fm.Min("X", fm.Or(fm.Dia(A, fm.Tt()), fm.Dia(TAU, fm.Var("X"))))
    interpret(lts, phi, stats=stats)
    assert stats.fixpoint_iterations >= 1
    assert stats.max_fixpoint_iterations >= 1
    assert stats.evaluations > 0


def test_simultaneous_vector_frozen():
    lts = fork_fixture()
    sim = fm.SimFormula(("X", "Y"), (fm.Dia(A, fm.Var("Y")), fm.Tt()), 0)
    vector = interpret_simultaneous_vector(lts, sim)
    assert names(lts, vector[0]) == {"fork", "pa", "divfork"}
    assert vector[1] == lts.full_mask
    assert interpret_simultaneous(lts, sim) == vector[0]


def test_simultaneous_requires_env_for_strays():
    lts = fork_fixture()
    sim = fm.SimFormula(("X",), (fm.Var("Z"),), 0)
    with pytest.raises(fm.FormulaError):
        interpret_simultaneous_vector(lts, sim)
    vector = interpret_simultaneous_vector(lts, sim, {"Z": ["dead"]})
    assert names(lts, vector[0]) == {"dead"}


@pytest.mark.parametrize("trial", range(60))
def test_interpret_matches_naive_oracle(trial):
    cfg = TrialConfig(max_states=6, max_formula_depth=4)
    rng = spawn_rng(7, "sem_oracle", trial)
    lts = generate_lts(cfg, rng)
    phi = generate_formula(cfg, rng, "full")
    assert interpret_states(lts, phi) == oracles.sat_states(lts, phi)


@pytest.mark.parametrize("trial", range(12))
def test_single_fixpoints_match_tarski(trial):
    cfg = TrialConfig(max_states=4, max_formula_depth=3)
    rng = spawn_rng(11, "tarski", trial)
    lts = generate_lts(cfg, rng)
    body = generate_formula(cfg, rng, "full", scope=("X",))
    least = interpret_states(lts, fm.Min("X", body))
    greatest = interpret_states(lts, fm.Max("X", body))
    assert least == oracles.tarski_least(lts, "X", body)
    assert greatest == oracles.tarski_greatest(lts, "X", body)
