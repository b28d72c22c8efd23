import random
import subprocess
import sys

import pytest

from rechml import formulas as fm
from rechml.generators import TrialConfig, generate_formula, generate_lts, spawn_rng
from rechml.lts import TAU, Lts, LtsError, visible
from rechml.textio import format_formula, parse_formula
from rechml.semantics import (
    EvalStats,
    _Evaluator,
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


def test_environment_rejects_masks_outside_the_system():
    lts = fork_fixture()
    for mask in (1 << len(lts.states), -1):
        with pytest.raises(LtsError):
            interpret(lts, fm.Dia(A, fm.Var("X")), {"X": mask})


def test_unbound_variable_raises():
    lts = fork_fixture()
    with pytest.raises(fm.FormulaError):
        interpret(lts, fm.Var("X"))


def test_non_formula_objects_are_not_interpreted():
    lts = fork_fixture()
    sim = fm.SimFormula(("X",), (fm.Var("X"),), 0)
    for node in (42, "tt", None, sim, fm.Or(fm.Tt(), 7), fm.And(fm.Tt(), sim)):
        with pytest.raises(fm.FormulaError, match="cannot interpret"):
            interpret(lts, node)


# Interprets min X0. [a](X0 /\ min X1. [a](X1 /\ ...)) with n binders and
# prints the denotation and the growth of peak RSS in kB.  The process is
# fresh, so that its peak is this interpretation's alone, and the walk runs
# in a thread with a stack of its own, since Python 3.10 spends C stack on
# every call (four per binder).
_NESTED_BINDERS = """
import resource, sys, threading
from rechml import formulas as fm
from rechml.lts import TAU, Lts, LtsError, visible
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


# -- large systems: the ring and tangle shapes of the cli benchmark --------

C = visible("c")
LETTERS = (A, B, C)


def ring(rng, n):
    """An a-ring of 9n/10 states with one b move, sparse tau shortcuts and
    c-exits into an a-path of n/10 states that ends in deadlock, declared
    in shuffled order.  A least fixpoint that looks for the b move takes
    about n iterations."""
    trap = max(2, n // 10)
    size = n - trap
    r = [f"r{i}" for i in range(size)]
    d = [f"d{i}" for i in range(trap)]
    edges = [(r[i], A, r[(i + 1) % size]) for i in range(size)]
    goal = rng.randrange(size)
    edges.append((r[goal], B, r[(goal + 1) % size]))
    for i in rng.sample(range(size), max(1, size // 30)):
        edges.append((r[i], TAU, r[(i + 1) % size]))
    for i in rng.sample(range(size), max(1, size // 10)):
        edges.append((r[i], C, d[0]))
    edges.extend((d[i], A, d[i + 1]) for i in range(trap - 1))
    states = r + d
    rng.shuffle(states)
    return Lts(states, edges, alphabet="abc")


def tangle(rng, n, cycle):
    """Blocks of `cycle` states in pairs: a tau path feeding a tau cycle
    (divergent) or a tau path (convergent), plus two random visible moves
    per state, declared in shuffled order."""
    names = [f"s{i}" for i in range(n)]
    perm = list(range(n))
    rng.shuffle(perm)
    edges = []
    blocks = [perm[i:i + cycle] for i in range(0, n, cycle)]
    for k, block in enumerate(blocks):
        edges += [(x, TAU, y) for x, y in zip(block, block[1:])]
        if k % 2 == 0 and k + 1 < len(blocks):
            edges.append((block[-1], TAU, blocks[k + 1][0]))
        elif k % 4 == 1 and len(block) > 1:
            edges.append((block[-1], TAU, block[0]))
    for i in range(n):
        for _ in range(2):
            edges.append((i, rng.choice(LETTERS), rng.randrange(n)))
    states = list(names)
    rng.shuffle(states)
    return Lts(states, [(names[s], act, names[t]) for s, act, t in edges], alphabet="abc")


# min nested in max and max nested in min, over both modalities, Acc and
# tau; the Kleene iterates of each inner binder grow or shrink by a few
# states at a time on a ring
ALTERNATING = [
    r"max Y. min X. (<b>Y \/ <a>X)",
    r"min X. max Y. (<b>tt \/ (<a>X /\ [c]Y /\ <a>Y))",
    r"max Y. ([tau]Y /\ min X. (<a>X \/ (Acc{b} /\ <b>Y)))",
    r"min X. (<c>tt \/ max Y. (<a>(X \/ Y) /\ [b]Y))",
    r"max Y. min X. (([a]X /\ <a>tt) \/ <b>Y \/ <tau>(Acc{c} /\ Y))",
    r"min X. max Y. (<b>tt \/ <tau>X \/ ([c]ff /\ <a>Y /\ [a](Y \/ X)))",
]


@pytest.mark.parametrize("shape,n", [("ring", 50), ("ring", 200), ("tangle", 60), ("tangle", 200)])
def test_alternating_fixpoints_match_oracle_on_large_systems(shape, n):
    rng = random.Random(n)
    lts = ring(rng, n) if shape == "ring" else tangle(rng, n, 12)
    for text in ALTERNATING:
        phi = parse_formula(text)
        assert interpret_states(lts, phi) == oracles.sat_states(lts, phi), text
    cfg = TrialConfig(max_formula_depth=4)
    for trial in range(12):
        phi = generate_formula(cfg, spawn_rng(n, f"large-{shape}", trial), "full")
        assert interpret_states(lts, phi) == oracles.sat_states(lts, phi), format_formula(phi)


def _replay(lts, node, masks):
    """Evaluates node under X = each mask in turn with one evaluator, so
    that each Dia or Box is updated from its previous input; checks every
    result against a fresh evaluation and the oracle, and returns the
    masks passed to lts.pre and the states passed to lts.reaches."""
    pre_masks, rechecked = [], []
    pre, reaches = lts.pre, lts.reaches
    lts.pre = lambda act, mask: pre_masks.append(mask) or pre(act, mask)
    lts.reaches = lambda act, i, mask: rechecked.append(i) or reaches(act, i, mask)
    ev = _Evaluator(lts, None)
    try:
        got = [ev.eval(node, {"X": mask}) for mask in masks]
    finally:
        del lts.pre, lts.reaches
    for mask, out in zip(masks, got):
        assert out == interpret(lts, node, {"X": mask})
        env = {"X": set(lts.names_of(mask))}
        assert set(lts.names_of(out)) == oracles.sat_states(lts, node, env)
    return pre_masks, rechecked


def _chain(rng, lts, density, steps, grow):
    """A random mask of the given density, then steps masks that each add
    (grow) or drop one to three states of the one before."""
    masks = [sum(1 << i for i in range(len(lts.states)) if rng.random() < density)]
    for _ in range(steps):
        mask = masks[-1]
        pool = [i for i in range(len(lts.states)) if bool(mask >> i & 1) != grow]
        for i in rng.sample(pool, min(len(pool), rng.randint(1, 3))):
            mask ^= 1 << i
        masks.append(mask)
    return masks


def _added(masks):
    return [new & ~old for old, new in zip(masks, masks[1:])]


def _dropped(masks):
    return [old & ~new for old, new in zip(masks, masks[1:])]


# One case per direction in which the input of a modality can move between
# two evaluations, on a tau-heavy system.  A Box takes the pre-image of the
# complement of its body, so it moves the other way.

@pytest.mark.parametrize("act", [A, TAU])
def test_delta_dia_growing(act):
    rng = random.Random(6)
    lts = tangle(rng, 120, 8)
    masks = _chain(rng, lts, 0.1, 12, grow=True)
    pre_masks, rechecked = _replay(lts, fm.Dia(act, fm.Var("X")), masks)
    assert pre_masks == masks[:1] + _added(masks) and not rechecked


@pytest.mark.parametrize("act", [A, TAU])
def test_delta_dia_shrinking(act):
    rng = random.Random(6)
    lts = tangle(rng, 120, 8)
    masks = _chain(rng, lts, 0.9, 12, grow=False)
    lowest = masks[-1] & -masks[-1]
    pre_masks, rechecked = _replay(lts, fm.Dia(act, fm.Var("X")), masks + [lowest])
    # a few dropped states: recheck their predecessors one at a time;
    # most of the mask dropped: the pre-image of what is left
    assert pre_masks == masks[:1] + _dropped(masks) + [lowest] and rechecked


@pytest.mark.parametrize("act", [A, TAU])
def test_delta_box_growing(act):
    rng = random.Random(6)
    lts = tangle(rng, 120, 8)
    masks = _chain(rng, lts, 0.1, 12, grow=True)
    pre_masks, rechecked = _replay(lts, fm.Box(act, fm.Var("X")), masks)
    assert pre_masks == [lts.full_mask & ~masks[0]] + _added(masks) and rechecked


@pytest.mark.parametrize("act", [A, TAU])
def test_delta_box_shrinking(act):
    rng = random.Random(6)
    lts = tangle(rng, 120, 8)
    masks = _chain(rng, lts, 0.9, 12, grow=False)
    pre_masks, rechecked = _replay(lts, fm.Box(act, fm.Var("X")), masks)
    assert pre_masks == [lts.full_mask & ~masks[0]] + _dropped(masks) and not rechecked


@pytest.mark.parametrize("act", [A, TAU])
def test_delta_incomparable_inputs(act):
    rng = random.Random(6)
    lts = tangle(rng, 120, 8)
    masks = [_chain(rng, lts, 0.5, 0, True)[0] for _ in range(8)]
    assert all(a & ~b and b & ~a for a, b in zip(masks, masks[1:]))
    pre_masks, rechecked = _replay(lts, fm.Dia(act, fm.Var("X")), masks)
    assert pre_masks == masks and not rechecked
    pre_masks, rechecked = _replay(lts, fm.Box(act, fm.Var("X")), masks)
    assert pre_masks == [lts.full_mask & ~m for m in masks] and not rechecked


# (fixpoint_iterations, evaluations) of the ring formulas of the cli
# benchmark on a 480-state ring, as the full pre-image recomputation
# counted them; the delta updates must compute the same iterates
RING_WORK = {
    r"min X. (<b>tt \/ <a>X)": (419, 1260),
    r"max Y. min X. (<b>Y \/ <a>X)": (840, 4193),
    r"min X. (<b>tt \/ ([a]X /\ <a>tt))": (433, 1737),
}


def test_ring_work_counts_frozen():
    lts = ring(random.Random(480), 480)
    for text, counts in RING_WORK.items():
        stats = EvalStats()
        interpret(lts, parse_formula(text), stats=stats)
        assert (stats.fixpoint_iterations, stats.evaluations) == counts, text


def test_kleene_loops_stop_at_their_bound(monkeypatch):
    # a monotone body on n states settles within n + 1 rounds: [a]X climbs
    # an a-chain one state a round, from the deadlocked end
    n = 6
    chain = Lts(transitions=[(f"s{i}", A, f"s{i + 1}") for i in range(n - 1)])
    stats = EvalStats()
    assert interpret(chain, parse_formula("min X. [a]X"), stats=stats) == chain.full_mask
    assert stats.max_fixpoint_iterations == n + 1
    sim = fm.SimFormula(("Z0", "Z1"), (parse_formula("[a]Z1"), parse_formula("[a]Z0")), 0)
    assert interpret_simultaneous_vector(chain, sim) == (chain.full_mask, chain.full_mask)

    # a pre-image of the complement is not monotone: on an a-cycle the
    # iterates of <a>X flip between no state and both, and both loops
    # raise at their bound, naming the binder
    def complement(self, node, act, mask):
        return self.lts.pre(act, self.lts.full_mask & ~mask)

    monkeypatch.setattr(_Evaluator, "_pre", complement)
    cycle = Lts(transitions=[("s0", A, "s1"), ("s1", A, "s0")])
    with pytest.raises(fm.FormulaError, match="fixpoint X did not settle within 3 iterations"):
        interpret(cycle, parse_formula("min X. <a>X"))
    sim = fm.SimFormula(("Z0", "Z1"), (parse_formula("<a>Z1"), parse_formula("<a>Z0")), 0)
    with pytest.raises(fm.FormulaError,
                       match="simultaneous fixpoint Z0, Z1 did not settle within 5 iterations"):
        interpret_simultaneous_vector(cycle, sim)
