import random
import subprocess
import sys

import pytest

from rechml import cli
from rechml.generators import TrialConfig, generate_lts, spawn_rng
from rechml.lts import OMEGA, TAU, Action, Lts, LtsError, visible

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


def test_testing_query_leaves_transitions_unbuilt(tmp_path, monkeypatch):
    # the named transitions and outgoing lists are built on first read,
    # and a may query never reads them on the process
    built = []

    def parse_and_keep(text):
        out = real(text)
        built.append(out[0])
        return out

    real = cli.parse_lts
    monkeypatch.setattr(cli, "parse_lts", parse_and_keep)
    proc = tmp_path / "proc.lts"
    proc.write_text("lts p\ninit p0\np0 a p1\np1 b p0\np1 tau p2\n")
    assert cli.main(["may", str(proc), "p0", "a.b.w.0", "--witness"]) == 0
    (lts,) = built
    assert "transitions" not in vars(lts) and "_outgoing" not in vars(lts)
    assert lts.outgoing("p1") == [("p1", visible("b"), "p0"), ("p1", TAU, "p2")]
    assert "transitions" in vars(lts)


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
