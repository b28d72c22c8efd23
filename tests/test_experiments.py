import hashlib
import random
import sys

import pytest

from rechml import testterms as tm
from rechml import harness
from rechml.experiments import (
    compose_all,
    may_satisfy,
    may_states,
    may_witness,
    must_counterexample,
    must_satisfy,
    must_states,
    parallel_compose,
)
from rechml.generators import TrialConfig, generate_lts, generate_test, spawn_rng
from rechml.lts import OMEGA, TAU, Lts, LtsError, visible
from rechml.testterms import CapExceeded, reachable_lts

import oracles
from oracles import graph_counterexample, graph_witness

A = visible("a")
B = visible("b")
C = visible("c")


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


def unfold_law_report(monkeypatch, body, trials=3):
    """The unfold_law check on the harness fixture process (trial 0) and
    random processes, with every drawn test body replaced by body."""
    monkeypatch.setattr(harness, "generate_test", lambda cfg, rng, scope=(): body)
    return harness.verify_theorems(TrialConfig(property_trials=trials), only={"unfold_law"})


def test_unfold_law_agrees_on_loop(monkeypatch):
    # mu X0. (a.X0 + b.w.0) against the fixture's deadlock, fork, one-armed
    # and divergent states: must for the test and for its unfolding agree
    body = tm.Sum(tm.Prefix(A, tm.Var("X0")), tm.Prefix(B, tm.Success()))
    report = unfold_law_report(monkeypatch, body)
    assert report.passed and report.checks[0].trials == 3
    assert report.checks[0].divergent_trials >= 1  # the fixture has divergent states


def test_unfold_violations_mask(monkeypatch):
    # a must solver that passes every state for the recursive test and
    # none for its unfolding breaks the forward direction at state 0
    answers = iter([-1, 0] * 3)
    monkeypatch.setattr(harness, "must_states", lambda experiment: next(answers) & experiment.proc.full_mask)
    report = unfold_law_report(monkeypatch, tm.Prefix(A, tm.Var("X0")))
    check = report.checks[0]
    assert check.failures == 3
    counterexample = check.counterexample
    assert counterexample["state"] == "dead" and counterexample["test"] == "mu X0. a.X0"
    assert (counterexample["recursive"], counterexample["unfolded"], counterexample["converges"]) == \
        (True, False, True)


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


def test_single_root_state_masks():
    # configuration i of a single-root graph is not process state i
    line = Lts(states=["p0", "p1", "p2"], transitions=[("p1", A, "p2")])
    cases = [(line, tm.Prefix(A, tm.Success()))]
    for term in (tm.Prefix(A, tm.Success()),
                 tm.Sum(tm.Prefix(B, tm.Success()), tm.Prefix(TAU, tm.Success())),
                 tm.Mu("X", tm.Sum(tm.Prefix(A, tm.Var("X")), tm.Prefix(B, tm.Success())))):
        cases.append((proc_fixture(), term))
    for proc, term in cases:
        tlts, troot = reachable_lts(term)
        for state in proc.states:
            graph = parallel_compose(proc, tlts, state, troot)
            bit = 1 << proc.state_index(state)
            assert may_states(graph) == (bit if may_satisfy(graph) else 0), state
            assert must_states(graph) == (bit if must_satisfy(graph) else 0), state


def _product_cases():
    """About 300 seeded process/test pairs: processes over one to three
    letters against tests over three, so the shared alphabet varies, plus
    a test whose root has a tau self-loop."""
    test_cfg = TrialConfig(max_test_depth=6)
    for i in range(300):
        rng = spawn_rng(29, "product", i)
        proc = generate_lts(TrialConfig(alphabet_size=1 + i % 3), rng)
        yield (proc, *reachable_lts(generate_test(test_cfg, rng)))
    spin = Lts(states=["t0", "t1", "t2"],
               transitions=[("t0", TAU, "t0"), ("t0", A, "t1"), ("t0", B, "t2"),
                            ("t1", OMEGA, "t1"), ("t2", TAU, "t0")])
    yield proc_fixture(), spin, "t0"


# sha256 of the configurations, edges, success flags and roots of
# compose_all and parallel_compose over _product_cases.  Witness and
# counterexample paths follow the edge order, so a change to the order in
# which configurations are found or listed shows up here.
PRODUCT_DIGEST = "f2ee9fa8aa5de4a1f37e4123eb4f0e0c322f0b42e67820616708dbfd0b1360bd"


def test_all_roots_states_match_oracles():
    """must_states and may_states of compose_all over _product_cases equal
    the oracles' verdicts at every root."""
    for proc, tlts, troot in _product_cases():
        every = compose_all(proc, tlts, troot)
        must, may = must_states(every), may_states(every)
        for i, state in enumerate(proc.states):
            assert bool(must >> i & 1) == oracles.must_oracle(proc, tlts, state, troot), state
            assert bool(may >> i & 1) == oracles.may_oracle(proc, tlts, state, troot), state


def test_must_states_builds_no_success_moves():
    """must_states alone searches depth-first from the roots: it builds
    the moves of non-success configurations only, and runs no
    breadth-first search."""
    for proc, tlts, troot in _product_cases():
        experiment = compose_all(proc, tlts, troot)
        must_states(experiment)
        assert experiment._expanded == 0 and len(experiment._keys) == len(experiment.roots)
        whole = compose_all(proc, tlts, troot)
        assert experiment.built <= whole.success.count(False)


def test_product_output_frozen():
    """Two passes: the whole graphs read fresh, then read after the
    single-root experiments' four answers have run their search up to
    the first success."""
    for answers_first in (False, True):
        h = hashlib.sha256()
        for proc, tlts, troot in _product_cases():
            last = proc.states[-1]
            for graph in (compose_all(proc, tlts, troot), parallel_compose(proc, tlts, last, troot)):
                if answers_first and len(graph.roots) == 1:
                    answers(graph, ("may", "must", "witness", "counterexample"))
                h.update(repr((graph.configs, graph.edges, graph.success, graph.roots)).encode())
        assert h.hexdigest() == PRODUCT_DIGEST, answers_first


# -- local solving of one root -----------------------------------------------


def answers(experiment, order):
    """The four answers of an experiment, asked in the given order."""
    ask = {"may": may_satisfy, "must": must_satisfy,
           "witness": may_witness, "counterexample": must_counterexample}
    got = {name: ask[name](experiment) for name in order}
    return got["may"], got["must"], repr(got["witness"]), repr(got["counterexample"])


def count_builds(experiment):
    """Wrap an experiment's move builder; returns the per-key build counts."""
    counts = {}
    build = experiment._build

    def counted(key):
        counts[key] = counts.get(key, 0) + 1
        return build(key)

    experiment._build = counted
    return counts


@pytest.mark.parametrize("chunk", range(10))
def test_local_answers_match_references(chunk):
    """2000 seeded small pairs: at every root, may and must equal the
    oracles and the all-roots solve, and the witness and counterexample
    print exactly as the reference walks over the whole graph, whichever
    answer is asked first."""
    cfg = TrialConfig(max_states=6, max_test_depth=4)
    for trial in range(200 * chunk, 200 * (chunk + 1)):
        rng = spawn_rng(31, "local", trial)
        proc = generate_lts(cfg, rng)
        tlts, troot = reachable_lts(generate_test(cfg, rng))
        may_all, must_all = oracles.passing(compose_all(proc, tlts, troot))
        for k, state in enumerate(proc.states):
            graph = parallel_compose(proc, tlts, state, troot)
            expected = (oracles.may_oracle(proc, tlts, state, troot),
                        oracles.must_oracle(proc, tlts, state, troot),
                        repr(graph_witness(graph)), repr(graph_counterexample(graph)))
            assert expected[:2] == (may_all[k], must_all[k]), (trial, state)
            experiment = parallel_compose(proc, tlts, state, troot)
            counts = count_builds(experiment)
            assert answers(experiment, ("may", "must", "witness", "counterexample")) == expected
            assert set(counts.values()) <= {1}
            later = parallel_compose(proc, tlts, state, troot)
            assert answers(later, ("counterexample", "witness", "must", "may")) == expected
            assert later.built <= len(graph)


def test_root_success_builds_nothing():
    proc = proc_fixture()
    tlts, troot = reachable_lts(tm.Sum(tm.Success(), tm.Prefix(A, tm.Nil())))
    for state in ("dead", "div", "fork"):
        experiment = parallel_compose(proc, tlts, state, troot)
        assert may_satisfy(experiment) and must_satisfy(experiment)
        assert may_witness(experiment) == [(state, troot)]
        assert must_counterexample(experiment) is None
        assert experiment.built == 0



def test_answers_continue_the_whole_graph_search():
    """Reading the whole graph first fills the one move memo: the four
    answers then build no move list again, and equal a fresh
    experiment's."""
    proc = proc_fixture()
    tlts, troot = reachable_lts(tm.Sum(tm.Prefix(A, tm.Prefix(B, tm.Success())),
                                       tm.Prefix(B, tm.Success())))
    order = ("may", "must", "witness", "counterexample")
    for state in proc.states:
        expected = answers(parallel_compose(proc, tlts, state, troot), order)
        experiment = parallel_compose(proc, tlts, state, troot)
        counts = count_builds(experiment)
        assert experiment.configs[0] == (state, troot)
        assert experiment.roots == [proc.state_index(state)]
        assert experiment.built == len(experiment) == len(counts)
        assert answers(experiment, order) == expected
        assert set(counts.values()) == {1} and experiment.built == len(experiment)


def test_local_answers_refuse_several_roots():
    proc = proc_fixture()
    tlts, troot = reachable_lts(tm.Prefix(A, tm.Success()))
    every = compose_all(proc, tlts, troot)
    for answer in (may_satisfy, must_satisfy, may_witness, must_counterexample):
        with pytest.raises(LtsError, match="roots: the local answers take one"):
            answer(every)
    assert every.built == 0
    assert must_states(every) == proc.mask_of(["fork", "pa"])


def ring(n, letters="ab", seed=5):
    """A tau-free process of n states, each with a move on every letter to
    a seeded random state; nothing deadlocks."""
    rng = random.Random(seed)
    return Lts(states=[f"p{i}" for i in range(n)],
               transitions=[(f"p{i}", visible(a), f"p{rng.randrange(n)}")
                            for i in range(n) for a in letters])


def levels(k, letters="ab"):
    """An acyclic test LTS: level i moves to level i + 1 on every letter,
    and level k succeeds."""
    return Lts(states=[f"l{i}" for i in range(k + 1)],
               transitions=[(f"l{i}", visible(a), f"l{i + 1}") for i in range(k) for a in letters]
               + [(f"l{k}", OMEGA, f"l{k}")])


def test_may_false_searches_the_whole_product():
    proc = ring(40)
    tlts, troot = reachable_lts(tm.Mu("X", tm.Sum(tm.Prefix(A, tm.Var("X")), tm.Prefix(B, tm.Var("X")))))
    graph = parallel_compose(proc, tlts, "p0", troot)
    experiment = parallel_compose(proc, tlts, "p0", troot)
    assert not may_satisfy(experiment) and may_witness(experiment) is None
    assert experiment.built == len(graph) == 52


def test_must_passing_visits_the_whole_non_success_region():
    proc, tlts = ring(40), levels(6)
    graph = parallel_compose(proc, tlts, "p0", "l0")
    experiment = parallel_compose(proc, tlts, "p0", "l0")
    assert must_satisfy(experiment) and must_counterexample(experiment) is None
    assert experiment.built == graph.success.count(False)
    assert may_satisfy(experiment)  # the first success: no further moves built
    assert experiment.built == graph.success.count(False)


def test_local_counterexample_shapes():
    t = tm.Prefix(A, tm.Success())
    tlts, troot = reachable_lts(t)
    proc = proc_fixture()
    assert must_counterexample(parallel_compose(proc, tlts, "pb", troot)) == ([("pb", troot)], None)
    path, loop = must_counterexample(parallel_compose(proc, tlts, "div", troot))
    assert (path, loop) == ([("div", troot), ("div", troot)], 0)
    assert must_counterexample(parallel_compose(proc, tlts, "fork", troot)) is None


def test_local_rejects_omega_and_unknown_states():
    tlts, troot = reachable_lts(tm.Success())
    bad = Lts(states=["x"], transitions=[("x", OMEGA, "x")])
    with pytest.raises(LtsError, match="omega"):
        parallel_compose(bad, tlts, "x", troot)
    with pytest.raises(LtsError, match="unknown state"):
        parallel_compose(proc_fixture(), tlts, "nowhere", troot)
    with pytest.raises(LtsError, match="unknown state"):
        parallel_compose(proc_fixture(), tlts, "fork", "nowhere")


# (configurations built, configurations of the whole product) for the two
# queries of test_work_counts_frozen.
FROZEN_BUILT = [(17, 757), (1349, 1633)]


def test_work_counts_frozen():
    """Configurations built for all four answers, against the size of the
    whole product.  The may-true, must-false query stops at the first
    success and at the first failing loop; the must-passing one needs
    every non-success configuration."""
    proc = ring(300, "abc")
    loop = tm.Mu("X", tm.Sum(tm.Prefix(A, tm.Var("X")),
                             tm.Sum(tm.Prefix(B, tm.Var("X")),
                                    tm.Prefix(C, tm.Prefix(C, tm.Success())))))
    tlts, troot = reachable_lts(loop)
    cases = [(tlts, troot, (True, False)), (levels(10, "abc"), "l0", (True, True))]
    built = []
    for tlts, troot, verdicts in cases:
        experiment = parallel_compose(proc, tlts, "p0", troot)
        counts = count_builds(experiment)
        assert answers(experiment, ("may", "must", "witness", "counterexample"))[:2] == verdicts
        assert set(counts.values()) == {1} and len(counts) == experiment.built
        built.append((experiment.built, len(parallel_compose(proc, tlts, "p0", troot))))
    assert built == FROZEN_BUILT


def test_config_cap_counts_built_configurations():
    """An experiment builds the moves of at most max_configs configurations:
    at the count an answer needs, all four answers agree with an uncapped
    experiment, since a revisit builds nothing; one below it, the answer
    raises CapExceeded."""
    proc, tlts = ring(300, "abc"), levels(10, "abc")
    order = ("must", "may", "witness", "counterexample")
    uncapped = parallel_compose(proc, tlts, "p0", "l0")
    expected = answers(uncapped, order)
    needed = uncapped.built
    assert needed == FROZEN_BUILT[1][0]
    capped = parallel_compose(proc, tlts, "p0", "l0", max_configs=needed)
    assert answers(capped, order) == expected and capped.built == needed
    short = parallel_compose(proc, tlts, "p0", "l0", max_configs=needed - 1)
    with pytest.raises(CapExceeded, match=f"more than {needed - 1} configurations"):
        must_satisfy(short)
    assert short.built == needed - 1
    with pytest.raises(CapExceeded):  # the whole-graph search counts the same memo
        len(parallel_compose(proc, tlts, "p0", "l0", max_configs=needed))
    with pytest.raises(ValueError, match="at least 1"):
        parallel_compose(proc, tlts, "p0", "l0", max_configs=0)


def test_deep_chain_is_answered_iteratively():
    """A 50,000-configuration chain under a recursion limit of 1000: the
    searches keep their own stacks.  Each test unfolds its binder by a
    tau step, so every process state meets two test states."""
    n = 25_000
    chain = Lts(states=[f"p{i}" for i in range(n)],
                transitions=[(f"p{i}", A, f"p{i + 1}") for i in range(n - 1)]
                + [(f"p{n - 1}", B, f"p{n - 1}")])
    stop = tm.Mu("X", tm.Prefix(A, tm.Var("X")))
    goal = tm.Mu("X", tm.Sum(tm.Prefix(A, tm.Var("X")), tm.Prefix(B, tm.Success())))
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        tlts, troot = reachable_lts(stop)
        failing = parallel_compose(chain, tlts, "p0", troot)
        path, loop = must_counterexample(failing)
        assert not may_satisfy(failing) and not must_satisfy(failing)
        assert len(path) == failing.built == 2 * n and loop is None
        tlts, troot = reachable_lts(goal)
        passing = parallel_compose(chain, tlts, "p0", troot)
        assert must_satisfy(passing) and must_counterexample(passing) is None
        assert len(may_witness(passing)) == 2 * n + 1
    finally:
        sys.setrecursionlimit(old)
