import pytest

from rechml import testterms as tm
from rechml.experiments import (
    UnfoldVerdicts,
    compose_all,
    may_satisfy,
    may_states,
    may_witness,
    must_counterexample,
    must_satisfy,
    must_states,
    must_unfold_law,
    parallel_compose,
)
from rechml.generators import TrialConfig, generate_lts, generate_test, spawn_rng
from rechml.lts import OMEGA, TAU, Lts, LtsError, visible
from rechml.testterms import reachable_lts

import oracles

A = visible("a")
B = visible("b")


def proc_fixture():
    return Lts(
        states=["dead", "fork", "pa", "pb", "div"],
        transitions=[
            ("fork", A, "dead"),
            ("fork", B, "dead"),
            ("pa", A, "dead"),
            ("pb", B, "dead"),
            ("div", TAU, "div"),
        ],
        alphabet=["a", "b"],
    )


def compose_with(term, state):
    proc = proc_fixture()
    tlts, troot = reachable_lts(term)
    return parallel_compose(proc, tlts, state, troot)


def test_processes_must_not_mention_omega():
    bad = Lts(states=["x"], transitions=[("x", OMEGA, "x")])
    tlts, troot = reachable_lts(tm.Success())
    with pytest.raises(LtsError):
        parallel_compose(bad, tlts, "x", troot)


def test_experiment_shape_frozen():
    graph = compose_with(tm.Prefix(A, tm.Success()), "fork")
    # (fork, a.w.0) -a-> (dead, w.0); nothing else moves
    assert len(graph) == 2
    assert graph.configs[0] == ("fork", "t0")
    assert graph.success == [False, True]
    assert graph.edges[0] == [1]
    assert graph.edges[1] == []


def test_verdicts_frozen():
    happy = tm.Prefix(A, tm.Success())
    for state, may, must in [
        ("fork", True, True),
        ("pa", True, True),
        ("pb", False, False),
        ("dead", False, False),
        ("div", False, False),
    ]:
        graph = compose_with(happy, state)
        assert may_satisfy(graph) == may, state
        assert must_satisfy(graph) == must, state

    # immediate success ignores everything else, divergence included
    now = tm.Success()
    for state in ("dead", "div", "fork"):
        graph = compose_with(now, state)
        assert may_satisfy(graph) and must_satisfy(graph)


def test_divergence_breaks_must_but_not_may():
    # div | (a.w.0 + tau.w.0): the tau arm reaches success, but the
    # process tau loop is an infinite unsuccessful computation
    t = tm.Sum(tm.Prefix(A, tm.Success()), tm.Prefix(TAU, tm.Success()))
    graph = compose_with(t, "div")
    assert may_satisfy(graph)
    assert not must_satisfy(graph)


def test_may_witness_is_a_real_path():
    t = tm.Sum(tm.Prefix(B, tm.Nil()), tm.Prefix(A, tm.Success()))
    graph = compose_with(t, "fork")
    path = may_witness(graph)
    assert path is not None
    assert path[0] == graph.configs[0]
    index = {cfg: i for i, cfg in enumerate(graph.configs)}
    for here, there in zip(path, path[1:]):
        assert index[there] in graph.edges[index[here]]
    assert graph.success[index[path[-1]]]
    assert may_witness(compose_with(t, "dead")) is None


def test_must_counterexample_shapes():
    t = tm.Prefix(A, tm.Success())
    found = must_counterexample(compose_with(t, "pb"))
    assert found is not None
    path, loop = found
    assert loop is None  # pb | a.w.0 deadlocks at the root
    assert path == [("pb", "t0")]

    found = must_counterexample(compose_with(t, "div"))
    assert found is not None
    path, loop = found
    assert loop is not None  # the tau self-loop never succeeds
    assert path[loop] in path

    assert must_counterexample(compose_with(t, "fork")) is None


def test_unfold_law_requires_recursion():
    with pytest.raises(tm.TestError):
        must_unfold_law(proc_fixture(), tm.Success())


def test_unfold_law_agrees_on_loop():
    proc = proc_fixture()
    loop = tm.Mu("X", tm.Sum(tm.Prefix(A, tm.Var("X")), tm.Prefix(B, tm.Success())))
    verdicts = must_unfold_law(proc, loop)
    assert verdicts.violations == 0
    tlts, troot = reachable_lts(loop)
    expected = proc.mask_of(
        s for s in proc.states if must_satisfy(parallel_compose(proc, tlts, s, troot))
    )
    assert verdicts.recursive == expected
    assert verdicts.converging == proc.mask_of(s for s in proc.states if s != "div")


def test_unfold_violations_mask():
    # state 0 breaks the forward direction; state 1 the converse, which
    # only counts where the process converges (state 2 does not)
    verdicts = UnfoldVerdicts(recursive=0b001, unfolded=0b110, converging=0b011)
    assert verdicts.violations == 0b011


@pytest.mark.parametrize("trial", range(40))
def test_verdicts_match_oracle(trial):
    cfg = TrialConfig(max_states=6, max_test_depth=4)
    rng = spawn_rng(23, "exp_oracle", trial)
    proc = generate_lts(cfg, rng)
    test = generate_test(cfg, rng)
    tlts, troot = reachable_lts(test)
    may_mask = must_mask = 0
    for state in proc.states:
        graph = parallel_compose(proc, tlts, state, troot)
        assert set(graph.configs) == oracles.compose(proc, tlts, state, troot)[0]
        may = oracles.may_oracle(proc, tlts, state, troot)
        must = oracles.must_oracle(proc, tlts, state, troot)
        assert may_satisfy(graph) == may
        assert must_satisfy(graph) == must
        may_mask |= may << proc.state_index(state)
        must_mask |= must << proc.state_index(state)
    every = compose_all(proc, tlts, troot)
    assert every.configs[: len(proc.states)] == [(s, troot) for s in proc.states]
    assert may_states(every) == may_mask
    assert must_states(every) == must_mask
