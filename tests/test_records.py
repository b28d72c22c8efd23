"""The contract of the records (TrialConfig, EvalStats, SimFormula,
CheckResult, TrialReport, and the term nodes) and of the interned
Action."""

import copy
import pickle

import pytest

from rechml import formulas as fm
from rechml.generators import TrialConfig
from rechml.harness import CheckResult, TrialReport, report_text, verify_theorems
from rechml.lts import OMEGA, TAU, Action, LtsError, visible
from rechml.semantics import EvalStats, interpret
from rechml.textio import parse_formula, parse_lts


def test_action_is_interned():
    assert Action("visible", "a") is visible("a")
    assert Action(kind="visible", name="a") is visible("a")
    assert Action("tau") is TAU and Action("tau", "") is TAU
    assert Action("omega") is OMEGA
    assert visible("a") is not visible("b")


def test_action_compares_and_hashes_by_identity():
    a = visible("a")
    assert type(a).__eq__ is object.__eq__ and type(a).__hash__ is object.__hash__
    assert {a: 1}[Action("visible", "a")] == 1
    assert a != visible("b") and a != TAU and a != "a"


def test_action_repr_and_str():
    assert repr(visible("a")) == "Action(kind='visible', name='a')"
    assert repr(TAU) == "Action(kind='tau', name='')"
    assert (str(visible("go")), str(TAU), str(OMEGA)) == ("go", "tau", "omega")


def test_action_refuses_assignment():
    a = visible("a")
    with pytest.raises(AttributeError):
        a.name = "b"
    with pytest.raises(AttributeError):
        del a.kind
    with pytest.raises(AttributeError):
        a.extra = 1
    assert (a.kind, a.name) == ("visible", "a")


@pytest.mark.parametrize("action", [visible("a"), TAU, OMEGA])
def test_action_copy_and_pickle_return_the_instance(action):
    assert copy.copy(action) is action
    assert copy.deepcopy(action) is action
    assert copy.deepcopy([action, action])[1] is action
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(action, protocol)) is action


@pytest.mark.parametrize("args, message", [
    (("visible", "tau"), "action name 'tau' is reserved"),
    (("visible", "A"), "bad action name 'A'"),
    (("visible", ["a"]), r"bad action name \['a'\]"),
    (("tau", "a"), "tau carries no name"),
    (("omega", []), "omega carries no name"),
    ((["tau"],), r"unknown action kind \['tau'\]"),
    (("silent",), "unknown action kind 'silent'"),
])
def test_action_refuses_bad_pairs_every_time(args, message):
    for _ in range(2):  # a rejected pair is rejected again, not interned
        with pytest.raises(LtsError, match=message):
            Action(*args)


def test_trial_config_positional_and_keyword():
    cfg = TrialConfig(7, 10, 4)
    assert cfg == TrialConfig(seed=7, trials=10, property_trials=4)
    assert cfg == TrialConfig(7, property_trials=4, trials=10)
    assert cfg != TrialConfig(7, 10, 5)
    assert (cfg.seed, cfg.max_states, cfg.tau_density) == (7, 8, 0.3)
    assert repr(TrialConfig()) == (
        "TrialConfig(seed=0, trials=500, property_trials=200, max_states=8, alphabet_size=3, "
        "max_formula_depth=5, max_test_depth=5, max_sim_vars=4, tau_density=0.3, "
        "divergence_bias=0.5)")
    for bad in (lambda: TrialConfig(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11),
                lambda: TrialConfig(1, seed=2),
                lambda: TrialConfig(seeds=1)):
        with pytest.raises(TypeError):
            bad()


@pytest.mark.parametrize("field, value, message", [
    ("alphabet_size", 0, "alphabet_size out of range"),
    ("alphabet_size", 26, "alphabet_size out of range"),
    ("max_states", 0, "max_states must be positive"),
    ("max_sim_vars", 0, "max_sim_vars must be positive"),
    ("trials", -1, "trials must be nonnegative"),
    ("property_trials", -1, "property_trials must be nonnegative"),
    ("max_formula_depth", -1, "max_formula_depth must be nonnegative"),
    ("max_test_depth", -1, "max_test_depth must be nonnegative"),
    ("tau_density", 1.5, r"tau_density must lie in \[0, 1\]"),
    ("divergence_bias", -0.5, r"divergence_bias must lie in \[0, 1\]"),
])
def test_trial_config_messages(field, value, message):
    with pytest.raises(ValueError) as err:
        TrialConfig(**{field: value})
    assert str(err.value) == message.replace("\\", "")
    with pytest.raises(ValueError, match=message):
        TrialConfig().replace(**{field: value})


def test_trial_config_replace():
    cfg = TrialConfig(seed=3)
    small = cfg.replace(max_states=6, trials=2)
    assert small == TrialConfig(seed=3, max_states=6, trials=2)
    assert cfg == TrialConfig(seed=3)
    cfg.trials = 9  # configs stay mutable, as the dataclass was
    assert cfg.trials == 9


def test_trial_config_fields_follow_report_settings():
    cfg = TrialConfig(trials=0, property_trials=0)
    head = report_text(verify_theorems(cfg)).splitlines()[0].split()
    assert [item.split("=")[0] for item in head[1:-1]] == list(TrialConfig._fields)
    assert list(cfg.asdict()) == list(TrialConfig._fields)


def test_eval_stats_counts():
    # counts recorded while EvalStats was a dataclass
    lts, _ = parse_lts("s0 a s1\ns1 a s2\ns2 a s3\ns3 tau s3\ns3 b s0\n")
    stats = EvalStats()
    assert stats == EvalStats(0, 0, 0)
    seen = []
    for text in (r"min X. [a]X", r"max X. <a>X \/ <b>tt", r"max X. min Y. (<a>Y \/ <b>X)"):
        mask = interpret(lts, parse_formula(text), stats=stats)
        seen.append((mask, stats.fixpoint_iterations, stats.max_fixpoint_iterations,
                     stats.evaluations))
    assert seen == [(0, 1, 1, 3), (15, 2, 1, 9), (15, 8, 5, 36)]
    assert repr(stats) == ("EvalStats(fixpoint_iterations=8, max_fixpoint_iterations=5, "
                           "evaluations=36)")


def test_sim_formula_is_an_immutable_value():
    sim = fm.SimFormula(["X", "Y"], [fm.Var("Y"), fm.Tt()], 0)
    assert sim.variables == ("X", "Y") and sim.bodies == (fm.Var("Y"), fm.Tt())
    assert sim == fm.SimFormula(("X", "Y"), (fm.Var("Y"), fm.Tt()), index=0)
    assert hash(sim) == hash(fm.SimFormula(("X", "Y"), (fm.Var("Y"), fm.Tt()), 0))
    assert repr(sim) == ("SimFormula(variables=('X', 'Y'), bodies=(Var(name='Y'), Tt()), "
                         "index=0)")
    with pytest.raises(AttributeError):
        sim.index = 1
    with pytest.raises(AttributeError):
        del sim.bodies
    assert copy.copy(sim) == sim and copy.deepcopy(sim) == sim
    assert pickle.loads(pickle.dumps(sim)) == sim
    with pytest.raises(fm.FormulaError, match="out of range"):
        sim.replace(index=2)


def test_records_are_equal_by_exact_type():
    class Stats(EvalStats):
        __slots__ = ()

    assert EvalStats() != Stats() and Stats() == Stats()
    with pytest.raises(TypeError):
        hash(EvalStats())  # mutable records are not hashable


def test_harness_records_default_and_copy():
    assert TrialReport(TrialConfig(), False).checks == ()
    first = TrialReport(TrialConfig(), False, [CheckResult("c", 1, 0, None, 0, 0)])
    assert first.checks[0].divergent_trials == 0 and first.passed
    deep = copy.deepcopy(first)
    assert deep == first and deep.checks is not first.checks
    assert pickle.loads(pickle.dumps(first)) == first


def test_term_nodes_copy_and_pickle():
    # nodes refuse assignment, so they are rebuilt from their fields
    phi = parse_formula(r"min X. [a]X /\ Acc{a, b} \/ <tau>tt")
    for out in (copy.copy(phi), copy.deepcopy(phi), pickle.loads(pickle.dumps(phi))):
        assert out == phi and out.free == phi.free and repr(out) == repr(phi)
    assert copy.deepcopy(phi).body.left.left.action is visible("a")
