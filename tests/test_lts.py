import random
import subprocess
import sys
import time

import pytest

from rechml import cli
from rechml import testterms as tm
from rechml import translate
from rechml.generators import TrialConfig, generate_lts, generate_test, spawn_rng
from rechml.lts import _DENSE, OMEGA, TAU, Action, Lts, LtsError, _image, visible
from rechml.semantics import interpret
from rechml.textio import parse_formula, parse_lts, parse_test

import oracles


def chain_with_loop():
    return Lts(
        states=["s0", "s1", "s2", "s3"],
        transitions=[
            ("s0", TAU, "s1"),
            ("s1", visible("a"), "s2"),
            ("s2", TAU, "s3"),
            ("s3", TAU, "s2"),
            ("s1", visible("b"), "s1"),
        ],
        alphabet=["a", "b"],
    )


def test_action_validation():
    assert visible("a") == visible("a")
    with pytest.raises(LtsError):
        visible("")
    for reserved in ("tau", "omega", "w"):
        with pytest.raises(LtsError):
            visible(reserved)


def test_visible_shares_one_instance_per_name():
    # an Action is frozen, so one validated instance serves every caller
    assert visible("a") is visible("a")
    assert visible("a") == Action("visible", "a") and visible("a") is not visible("b")
    for _ in range(2):  # a rejected name is rejected again, not remembered
        with pytest.raises(LtsError):
            visible("w")


def test_construction_interns_transition_states():
    lts = Lts(states=["s0"], transitions=[("s0", TAU, "zz")])
    assert lts.states == ("s0", "zz")
    assert Lts(states=["s0", "s0"]).states == ("s0",)
    with pytest.raises(LtsError):
        Lts(states=[""])
    with pytest.raises(LtsError):
        Lts(states=["x"], transitions=[("x", "a", "x")])


def test_alphabet_is_sorted_union():
    lts = Lts(states=["x"], transitions=[("x", visible("b"), "x")],
              alphabet=["c", "a"])
    assert lts.alphabet == ("a", "b", "c")


def test_duplicate_transitions_collapse():
    lts = Lts(states=["x"], transitions=[("x", TAU, "x"), ("x", TAU, "x")])
    assert len(lts.transitions) == 1


def reached(lts, state, act):
    """The weak act-derivatives of a state, asking Lts.reaches of one
    target state at a time."""
    i = lts.state_index(state)
    return {s for j, s in enumerate(lts.states) if lts.reaches(act, i, 1 << j)}


def pre_of(lts, act, mask):
    """The states with a weak act-derivative in the mask, from Lts.pre."""
    return set(lts.names_of(lts.pre(act, mask)))


def assert_matches_oracle(lts):
    """reaches and pre at every state and action against the oracle's tau
    closures and weak derivatives, and convergence against its divergence
    search."""
    for state in lts.states:
        assert reached(lts, state, TAU) == oracles.tau_closure(lts, state)
        assert lts.converges(state) == oracles.converges(lts, state)
        for letter in lts.alphabet:
            act = visible(letter)
            assert reached(lts, state, act) == oracles.weak_derivatives(lts, state, act)
    for act in [TAU] + [visible(letter) for letter in lts.alphabet]:
        for j, target in enumerate(lts.states):
            expected = {s for s in lts.states if target in oracles.weak_derivatives(lts, s, act)}
            assert pre_of(lts, act, 1 << j) == expected


def test_tau_closure_frozen():
    lts = chain_with_loop()
    assert reached(lts, "s0", TAU) == {"s0", "s1"}
    assert reached(lts, "s2", TAU) == {"s2", "s3"}
    assert pre_of(lts, TAU, lts.mask_of(["s1"])) == {"s0", "s1"}


def test_weak_derivatives_frozen():
    lts = chain_with_loop()
    assert reached(lts, "s0", visible("a")) == {"s2", "s3"}
    # s1 has no tau moves, so padding after the b step adds nothing
    assert reached(lts, "s0", visible("b")) == {"s1"}
    assert reached(lts, "s2", visible("a")) == set()
    assert pre_of(lts, visible("a"), lts.mask_of(["s3"])) == {"s0", "s1"}


def test_divergence_frozen():
    lts = chain_with_loop()
    assert not lts.converges("s2")
    assert not lts.converges("s3")
    # s0 reaches the loop only through a visible action, so it converges
    assert lts.converges("s0")
    assert lts.converges("s1")


def test_weak_queries_reject_omega_and_unknown_actions():
    lts = chain_with_loop()
    with pytest.raises(LtsError):
        lts.pre(OMEGA, lts.full_mask)
    with pytest.raises(LtsError):
        lts.reaches(OMEGA, 0, lts.full_mask)
    # an action with no transitions anywhere has no weak derivatives
    assert lts.pre(visible("zz"), lts.full_mask) == 0
    assert not lts.reaches(visible("zz"), 0, lts.full_mask)


@pytest.mark.parametrize("trial", range(10))
def test_full_mask_pre_is_memoised_per_action(trial):
    # the can-set of each action, answered again from the memo in either
    # call order, is the one a fresh system computes from single states
    def make():
        return generate_lts(TrialConfig(max_states=7), spawn_rng(31, "can", trial))

    fresh = make()
    can = {act: 0 for act in (visible("a"), visible("b"))}
    for act in can:
        for i in range(len(fresh.states)):
            can[act] |= fresh.pre(act, 1 << i)
    for order in (list(can), list(reversed(can))):
        lts = make()
        for _ in range(2):
            for act in order:
                assert lts.pre(act, lts.full_mask) == can[act]
        assert lts.pre(TAU, lts.full_mask) == lts.full_mask
        with pytest.raises(LtsError):
            lts.pre(OMEGA, lts.full_mask)
        for _ in range(2):
            assert lts.pre(visible("zz"), lts.full_mask) == 0


def test_mask_round_trip():
    lts = chain_with_loop()
    mask = lts.mask_of(["s1", "s3"])
    assert list(lts.names_of(mask)) == ["s1", "s3"]
    assert lts.full_mask == (1 << 4) - 1


@pytest.mark.parametrize("trial", range(40))
def test_closures_match_oracle(trial):
    cfg = TrialConfig(max_states=7)
    assert_matches_oracle(generate_lts(cfg, spawn_rng(99, "lts_oracle", trial)))


def test_long_tau_chains_match_oracle():
    """A 35-state tau path feeding a 20-state tau cycle, and a convergent
    5-state tau tail, declared in shuffled order so that closures take
    many steps in no particular index order."""
    path = [f"p{i}" for i in range(35)]
    cycle = [f"c{i}" for i in range(20)]
    tail = [f"q{i}" for i in range(5)]
    transitions = [(x, TAU, y) for chain in (path, cycle, tail) for x, y in zip(chain, chain[1:])]
    transitions += [("p34", TAU, "c0"), ("c19", TAU, "c0"),
                    ("p3", visible("a"), "p28"), ("p17", visible("b"), "q0"),
                    ("c11", visible("a"), "q2"), ("q4", visible("a"), "p0")]
    states = path + cycle + tail
    random.Random(7).shuffle(states)
    lts = Lts(states=states, transitions=transitions)
    assert len(reached(lts, "p0", TAU)) == 55
    assert not lts.converges("p0") and lts.converges("q0")
    assert_matches_oracle(lts)


def tau_heavy(rng, n):
    """Tau self-loops, tau cycles nested inside larger ones, long tau
    chains that end in them or in a deadlock, and some visible moves."""
    names = [f"s{i}" for i in range(n)]
    edges = []
    for _ in range(rng.randint(0, 3)):
        edges.append((rng.choice(names), TAU, rng.choice(names)))
        s = rng.choice(names)
        edges.append((s, TAU, s))
    for _ in range(rng.randint(1, 3)):
        chain = rng.sample(names, rng.randint(2, n))
        edges += [(x, TAU, y) for x, y in zip(chain, chain[1:])]
        if rng.random() < 0.5:
            # close it into a cycle through a random earlier state
            edges.append((chain[-1], TAU, rng.choice(chain[:-1])))
    for _ in range(n):
        edges.append((rng.choice(names), visible(rng.choice("ab")), rng.choice(names)))
    return Lts(names, edges, alphabet="ab")


@pytest.mark.parametrize("trial", range(30))
def test_peeled_divergence_and_backward_pre_match_oracle(trial):
    rng = random.Random(trial)
    lts = tau_heavy(rng, rng.randint(2, 40))
    for state in lts.states:
        assert lts.converges(state) == (not oracles.diverges(lts, state)), state
    for _ in range(4):
        mask = sum(1 << i for i in range(len(lts.states)) if rng.random() < 0.2)
        target = set(lts.names_of(mask))
        for act in (TAU, visible("a"), visible("b")):
            expected = {s for s in lts.states if oracles.weak_derivatives(lts, s, act) & target}
            assert set(lts.names_of(lts.pre(act, mask))) == expected
            for i, state in enumerate(lts.states):
                assert lts.reaches(act, i, mask) == (state in expected)


# Builds a 4000-state tau chain whose last state offers a back to the first,
# answers pre and divergence, closes the chain into a tau cycle and answers
# divergence again; prints the seconds taken.
_TAU_CHAIN = """
import sys, time
from rechml.lts import TAU, Lts, visible

n = int(sys.argv[1])
a = visible("a")
chain = [(f"p{i}", TAU, f"p{i + 1}") for i in range(n - 1)]
start = time.perf_counter()
lts = Lts(transitions=chain + [(f"p{n - 1}", a, "p0")])
last = 1 << lts.state_index(f"p{n - 1}")
assert lts.pre(TAU, last) == lts.full_mask
assert lts.pre(a, 1 << lts.state_index("p0")) == lts.full_mask
assert lts.divergent_mask == 0
looped = Lts(transitions=chain + [(f"p{n - 1}", TAU, f"p{n // 2}")])
assert looped.divergent_mask == looped.full_mask
print(time.perf_counter() - start)
"""


def test_long_tau_chain_builds_without_closures():
    # a tau closure per state made this about 14 s
    done = subprocess.run([sys.executable, "-c", _TAU_CHAIN, "4000"],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert float(done.stdout) < 5, done.stdout


LAZY = ("transitions", "_back_tau", "divergent_mask")


def test_testing_query_leaves_transitions_unbuilt(tmp_path, monkeypatch):
    # the named transitions, tau predecessors and divergence are built on
    # first read, and neither a may nor a must query reads them on the
    # process or on the explored test
    built = []

    def parse_and_keep(text):
        out = real(text)
        built.append(out[0])
        return out

    def reach_and_keep(term, max_states):
        out = real_reach(term, max_states)
        built.append(out[0])
        return out

    real, real_reach = cli.parse_lts, cli.reachable_lts
    monkeypatch.setattr(cli, "parse_lts", parse_and_keep)
    monkeypatch.setattr(cli, "reachable_lts", reach_and_keep)
    proc = tmp_path / "proc.lts"
    proc.write_text("lts p\ninit p0\np0 a p1\np1 b p0\np1 tau p2\np2 tau p2\n")
    assert cli.main(["may", str(proc), "p0", "a.b.w.0", "--witness"]) == 0
    assert cli.main(["must", str(proc), "p0", "mu X. a.tau.X + a.w.0", "--witness"]) == 1
    assert len(built) == 4
    for lts in built:
        assert not set(LAZY) & set(vars(lts)), lts
    lts = built[0]
    assert oracles.outgoing(lts, "p1") == [("p1", visible("b"), "p0"), ("p1", TAU, "p2")]
    assert "transitions" in vars(lts) and "divergent_mask" not in vars(lts)
    assert lts.divergent_mask == lts.mask_of(["p1", "p2"])
    assert "_back_tau" in vars(lts)


def test_system_builders_leave_transitions_unbuilt():
    # compile-test reads each test state's moves by index, not off the
    # named transitions
    lts, root = tm.reachable_lts(parse_test("mu X. a.(X + tau.b.w.0) + c.0"))
    for build in (translate.test_lts_to_must_system, translate.test_lts_to_may_system):
        build(lts, root)
        assert "transitions" not in vars(lts)


def _produced_systems():
    """Systems from each producer of the build step, each with a move
    given twice: parse_lts, explore, generate_lts, Lts(...) and _with."""
    a, b, c = visible("a"), visible("b"), visible("c")
    parsed, _ = parse_lts("p a q\nq tau p\np a q\nstate r\nq b p\nq tau p\n")
    assert parsed.transitions == (("p", a, "q"), ("q", TAU, "p"), ("q", b, "p"))
    public = Lts(["r"], [("p", a, "q"), ("q", TAU, "p"), ("p", a, "q")], alphabet="c")
    assert public.transitions == (("p", a, "q"), ("q", TAU, "p"))
    extended = public._with(1, a, 2)._with(2, c, 0)._with(2, c, 0)
    assert extended.transitions == (("p", a, "q"), ("q", TAU, "p"), ("q", c, "r"))
    systems = [
        parsed, public, extended,
        tm.explore(parse_test("a.w.0 + a.w.0 + b.(mu X. tau.X + tau.X)"))[0],
    ]
    cfg = TrialConfig(max_states=2, alphabet_size=1)
    generated = [generate_lts(cfg, spawn_rng(61, "repeats", trial)) for trial in range(40)]
    systems += [lts for lts in generated if len(set(lts._triples)) < len(lts._triples)][:3]
    assert len(systems) == 7
    return systems


def test_every_producer_builds_from_its_index_and_dedupes_moves_once():
    for lts in _produced_systems():
        assert len(set(lts._triples)) < len(lts._triples), lts
        assert lts.states == tuple(lts._index)
        assert [lts._index[s] for s in lts.states] == list(range(len(lts.states)))
        moves = lts._moves()
        assert len(set(moves)) == len(moves) == len(set(lts._triples))
        assert all(type(act) is Action for _, act, _ in moves)
        states = lts.states
        assert lts.transitions == tuple((states[i], act, states[j]) for i, act, j in moves)


def no_tau(rng, n):
    """Visible moves only, some states without any."""
    names = [f"s{i}" for i in range(n)]
    edges = [(rng.choice(names), visible(rng.choice("ab")), rng.choice(names)) for _ in range(n)]
    return Lts(names, edges, alphabet="c")


def lazy_reads(lts):
    """Each relation built on first read, by a function that reads it."""
    return [
        ("divergent_mask", lambda: lts.divergent_mask),
        ("pre tau", lambda: [lts.pre(TAU, 1 << i) for i in range(len(lts.states))]),
        ("omega_mask", lambda: lts.omega_mask),
        ("alphabet", lambda: lts.alphabet),
    ]


def oracle_reads(lts, declared):
    """What lazy_reads should return, from the oracle's closures and the
    named transitions; declared is the alphabet the system was built with."""
    return {
        "divergent_mask": lts.mask_of(s for s in lts.states if oracles.diverges(lts, s)),
        "pre tau": [lts.mask_of(s for s in lts.states if t in oracles.tau_closure(lts, s))
                    for t in lts.states],
        "omega_mask": lts.mask_of({src for src, act, _ in lts.transitions if act == OMEGA}),
        "alphabet": tuple(sorted({act.name for _, act, _ in lts.transitions if act.kind == "visible"}
                                 | set(declared))),
    }


@pytest.mark.parametrize("trial", range(12))
def test_lazy_relations_match_oracle_in_either_order(trial):
    # divergence and the tau predecessors are built on first read, whichever
    # is read first; on a system without tau moves the peel is skipped
    cfg = TrialConfig(max_states=7)
    n = random.Random(trial).randint(1, 9)
    makers = [
        (lambda: generate_lts(cfg, spawn_rng(41, "lazy", trial)), cfg.alphabet()),
        (lambda: no_tau(random.Random(trial), n), "c"),
        (lambda: tm.explore(generate_test(cfg, spawn_rng(41, "lazy test", trial)))[0], ()),
    ]
    for make, declared in makers:
        expected = oracle_reads(make(), declared)
        for reverse in (False, True):
            reads = lazy_reads(make())
            for name, read in reversed(reads) if reverse else reads:
                assert read() == expected[name], name
    quiet = no_tau(random.Random(trial), n)
    assert quiet.divergent_mask == 0 and "_back_tau" not in vars(quiet)


@pytest.mark.parametrize("trial", range(4))
def test_tau_free_system_answers_without_tau_closures(trial):
    # without tau moves a weak derivative is a strong one, or for tau the
    # state itself, so pre and reaches never build the tau-predecessor lists
    rng = random.Random(trial)
    lts = no_tau(rng, 9)
    masks = [rng.getrandbits(len(lts.states)) for _ in range(6)] + [lts.full_mask]
    for act in (TAU, visible("a"), visible("b"), visible("c")):
        weak = {s: oracles.weak_derivatives(lts, s, act) for s in lts.states}
        for mask in masks:
            target = set(lts.names_of(mask))
            expected = {s for s in lts.states if weak[s] & target}
            assert set(lts.names_of(lts.pre(act, mask))) == expected
            for i, state in enumerate(lts.states):
                assert lts.reaches(act, i, mask) == (state in expected)
    assert "_back_tau" not in vars(lts)


def test_pre_rejects_masks_outside_the_system():
    lts = chain_with_loop()
    for act in (TAU, visible("a"), visible("zz")):
        for mask in (-1, ~lts.full_mask, lts.full_mask + 1, 1 << len(lts.states)):
            with pytest.raises(LtsError, match="outside the system"):
                lts.pre(act, mask)
        assert lts.pre(act, 0) == 0


# Builds an n-state a-chain through parse_lts and then through Lts(...),
# and answers one pre on the second; prints the seconds each build took and
# the peak resident memory in MB.
_A_CHAIN = """
import resource, sys, time
from rechml.lts import Lts, visible
from rechml.textio import parse_lts

n = int(sys.argv[1])
text = "".join(f"p{i} a p{i + 1}\\n" for i in range(n - 1))
start = time.perf_counter()
lts, _ = parse_lts(text)
parsed = time.perf_counter() - start
assert len(lts.states) == n and lts.divergent_mask == 0
del lts
a = visible("a")
chain = [(f"p{i}", a, f"p{i + 1}") for i in range(n - 1)]
start = time.perf_counter()
lts = Lts(transitions=chain)
assert len(lts.states) == n and lts.divergent_mask == 0
public = time.perf_counter() - start
assert lts.pre(a, 1 << n - 1) == 1 << n - 2
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(parsed, public, peak / 2**20 if sys.platform == "darwin" else peak / 2**10)
"""


def test_long_chain_builds_in_linear_time():
    # a row of n zeros allocated per transition made this about 30 s, and
    # successor rows kept as n-bit masks peaked at about 1.3 GB once pre ran
    done = subprocess.run([sys.executable, "-c", _A_CHAIN, "100000"],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    parsed, public, peak_mb = map(float, done.stdout.split())
    assert parsed < 10 and public < 10, done.stdout
    assert peak_mb < 250, done.stdout


def dense_systems():
    """Systems of 40-300 states, where masks of _DENSE or more set bits,
    or rows of more than _DENSE targets, take the selector walk: generated
    ones, a 203-state a-chain (not a multiple of 8 states), a tau fan
    whose hub's tau closure and its images are dense, a tau tangle, and
    fans of 40, 150 and 297 a-predecessors of one hub."""
    cfg = TrialConfig(max_states=300)
    drawn = (generate_lts(cfg, spawn_rng(23, "dense", trial)) for trial in range(40))
    systems = [lts for lts in drawn if len(lts.states) >= 40][:4]
    a, b = visible("a"), visible("b")
    systems.append(Lts([f"c{i}" for i in range(203)],
                       [(f"c{i}", a, f"c{i + 1}") for i in range(202)], alphabet="ab"))
    fan = [("hub", TAU, f"f{i}") for i in range(45)]
    fan += [(f"f{i}", a, f"f{i * 7 % 45}") for i in range(45)]
    fan += [(f"f{i}", b, "hub") for i in range(0, 45, 3)]
    systems.append(Lts(["hub"], fan, alphabet="ab"))
    systems.append(tau_heavy(random.Random(5), 97))
    # the hub z moves by b to e; the larger fans add tau moves between
    # the predecessors, a b-star from e and an a-loop on the hub
    for k in (40, 150, 297):
        fan = [(f"s{i}", a, "z") for i in range(k)] + [("z", b, "e")]
        if k > 40:
            fan += [(f"s{i}", TAU, f"s{i * 5 % k}") for i in range(0, k, 4)]
            fan += [("e", b, f"s{i}") for i in range(0, k, 2)] + [("z", a, "z")]
        systems.append(Lts([], fan, alphabet="ab"))
    return systems


def threshold_masks(rng, n):
    """The full mask, masks of _DENSE - 1, _DENSE and _DENSE + 1 set bits,
    and a dense mask whose top bit is the last state."""
    masks = [(1 << n) - 1]
    for k in (_DENSE - 1, _DENSE, _DENSE + 1):
        masks.append(sum(1 << i for i in rng.sample(range(n), k)))
    masks.append(sum(1 << i for i in rng.sample(range(n - 1), _DENSE)) | 1 << n - 1)
    return masks


DENSE_FORMULAS = ("<a>tt", "[b]ff", "Acc{a,b}", "[tau]<b>tt", "min X. [a]X",
                  "max X. <a>X \\/ <b>tt", "min X. <tau>X \\/ (<a>tt /\\ [b]ff)")


@pytest.mark.parametrize("system", range(10))
def test_dense_masks_match_oracle(system):
    # verify's systems have at most 8 states, so only these reach the
    # selector walk of _image
    lts = dense_systems()[system]
    n = len(lts.states)
    assert 40 <= n <= 300
    rng = random.Random(system)
    acts = [TAU] + [visible(letter) for letter in lts.alphabet]
    weak = {(s, act): oracles.weak_derivatives(lts, s, act) for s in lts.states for act in acts}
    # and the one-bit mask of the state with the most predecessors, whose
    # row alone can overrun the walk's budget
    indegree = [0] * n
    for _, _, dst in lts.transitions:
        indegree[lts.state_index(dst)] += 1
    for mask in threshold_masks(rng, n) + [1 << indegree.index(max(indegree))]:
        target = set(lts.names_of(mask))
        for act in acts:
            expected = {s for s in lts.states if weak[s, act] & target}
            assert set(lts.names_of(lts.pre(act, mask))) == expected
            for i, state in enumerate(lts.states):
                assert lts.reaches(act, i, mask) == (state in expected)
        phi = parse_formula("<a>X \\/ [tau]X")
        assert interpret(lts, phi, {"X": mask}) == lts.mask_of(oracles.sat_states(lts, phi, {"X": target}))
    for text in DENSE_FORMULAS:
        phi = parse_formula(text)
        assert interpret(lts, phi) == lts.mask_of(oracles.sat_states(lts, phi)), text


def test_a_fan_hub_takes_the_selector_walk():
    # rows as pre sees them on a fan: the hub (index n) lists its n
    # predecessors.  That row alone overruns the walk's budget, so the
    # hub's one-bit mask costs about what the full mask costs; walked one
    # target at a time it cost about 7 times as much
    n = 100_000
    rows = [()] * n + [tuple(range(n))]
    assert _image(rows, 1 << n) == (1 << n) - 1

    def best(mask):
        times = []
        for _ in range(3):
            start = time.perf_counter()
            _image(rows, mask)
            times.append(time.perf_counter() - start)
        return min(times)

    hub, full = best(1 << n), best((1 << n + 1) - 1)
    assert hub < 2 * full, (hub, full)


def test_build_rows_are_sorted_and_deduped_in_any_order():
    rng = random.Random(23)
    a, b = visible("a"), visible("b")
    states = [f"s{i}" for i in range(30)]
    moves = [(rng.choice(states), rng.choice((TAU, a, b, OMEGA)), rng.choice(states)) for _ in range(200)]
    moves += rng.sample(moves, 40)
    for order in (moves, moves[::-1], rng.sample(moves, len(moves))):
        lts = Lts(states, order)
        for act in (TAU, a, b, OMEGA):
            expected = tuple(tuple(sorted({lts.state_index(dst) for src, x, dst in order
                                           if src == state and x == act}))
                             for state in states)
            assert lts.strong_row(act) == expected
        assert lts.transitions == tuple(dict.fromkeys(order))


# Builds a star of n a-moves from one hub, fed in descending target order;
# prints the seconds the build took.
_STAR = """
import sys, time
from rechml.lts import Lts, visible

n = int(sys.argv[1])
a = visible("a")
states = ["hub"] + [f"t{j}" for j in range(n)]
moves = [("hub", a, f"t{j}") for j in reversed(range(n))]
start = time.perf_counter()
lts = Lts(states, moves)
built = time.perf_counter() - start
assert lts.strong_row(a)[0] == tuple(range(1, n + 1))
assert lts.transitions[0] == ("hub", a, f"t{n - 1}")
print(built)
"""


def test_star_builds_in_near_linear_time():
    # about 0.1 s; deduping each target by a search of the hub's growing
    # target list would take about 17 s
    done = subprocess.run([sys.executable, "-c", _STAR, "50000"],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert float(done.stdout) < 5, done.stdout


# Runs `rechml check` from s0 on an n-state file as its only child process:
# an a-chain, or a fan (every other state moves by a to z, and z by b to
# e); prints the exit code, stdout, the seconds taken and the child's peak
# resident memory in MB.
_CHECK_CHAIN = """
import resource, subprocess, sys, time

path, n, shape, formula = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4]
with open(path, "w") as out:
    if shape == "chain":
        out.writelines(f"s{i} a s{i + 1}\\n" for i in range(n - 1))
    else:
        out.writelines(f"s{i} a z\\n" for i in range(n - 2))
        out.write("z b e\\n")
start = time.perf_counter()
done = subprocess.run([sys.executable, "-m", "rechml", "check", path, "s0", formula],
                      capture_output=True, text=True)
took = time.perf_counter() - start
peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
print(done.returncode, done.stdout.strip(), took, peak / 2**20 if sys.platform == "darwin" else peak / 2**10)
"""


def test_300000_state_chain_answers_in_bounded_memory(tmp_path):
    # the chain: about 1 s at 136 MB; walking the full mask one bit at a
    # time took about 28 s.  The fan: about 1 s at 115 MB; walking the
    # hub's 299,998 a-predecessors one at a time took 0.5 s more
    for shape, formula in ("chain", "<a>tt"), ("fan", "<a><b>tt"), ("fan", "<a>tt"):
        done = subprocess.run([sys.executable, "-c", _CHECK_CHAIN, str(tmp_path / f"{shape}.lts"), "300000",
                               shape, formula], capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        code, out, took, peak_mb = done.stdout.split()
        assert (code, out) == ("0", "sat=true"), (shape, formula, done.stdout)
        assert float(peak_mb) < 250, (shape, formula, done.stdout)
        assert float(took) < 20, (shape, formula, done.stdout)
