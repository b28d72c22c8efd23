import hashlib
import random
import sys

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


def test_product_output_frozen():
    h = hashlib.sha256()
    for proc, tlts, troot in _product_cases():
        last = proc.states[-1]
        for graph in (compose_all(proc, tlts, troot), parallel_compose(proc, tlts, last, troot)):
            h.update(repr((graph.configs, graph.edges, graph.success, graph.roots)).encode())
    assert h.hexdigest() == PRODUCT_DIGEST


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
    build = experiment._moves.build

    def counted(key):
        counts[key] = counts.get(key, 0) + 1
        return build(key)

    experiment._moves.build = counted
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
        may_all, must_all = compose_all(proc, tlts, troot).passing
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



def test_whole_graph_is_built_apart_from_the_answers():
    """Reading the whole graph of an experiment builds nothing in the
    answers' memo: they still build each move list once, and as many."""
    proc = proc_fixture()
    tlts, troot = reachable_lts(tm.Sum(tm.Prefix(A, tm.Prefix(B, tm.Success())),
                                       tm.Prefix(B, tm.Success())))
    order = ("may", "must", "witness", "counterexample")
    fresh = parallel_compose(proc, tlts, "fork", troot)
    expected = answers(fresh, order)
    experiment = parallel_compose(proc, tlts, "fork", troot)
    assert len(experiment) == 3 and experiment.roots == [1]
    assert experiment.configs[0] == ("fork", troot)
    assert experiment.built == 0
    counts = count_builds(experiment)
    assert answers(experiment, order) == expected
    assert set(counts.values()) == {1} and experiment.built == fresh.built

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
