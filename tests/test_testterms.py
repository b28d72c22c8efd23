import hashlib
import sys
from functools import reduce

import pytest

from rechml import formulas as fm
from rechml import testterms as tm
from rechml.generators import TrialConfig, generate_test, spawn_rng
from rechml.lts import OMEGA, TAU, visible
from rechml.textio import format_test, parse_test

import oracles

A = visible("a")
B = visible("b")


def test_prefix_rejects_omega():
    # success is only ever spelled as the Success leaf
    with pytest.raises(tm.TestError):
        tm.Prefix(OMEGA, tm.Nil())


def test_step_rules_frozen():
    assert oracles.test_step(tm.Nil()) == []
    assert oracles.test_step(tm.Success()) == [(OMEGA, tm.Nil())]
    assert oracles.test_step(tm.Prefix(A, tm.Success())) == [(A, tm.Success())]
    summed = tm.Sum(tm.Prefix(A, tm.Nil()), tm.Prefix(TAU, tm.Success()))
    assert oracles.test_step(summed) == [(A, tm.Nil()), (TAU, tm.Success())]
    loop = tm.Mu("X", tm.Prefix(A, tm.Var("X")))
    steps = oracles.test_step(loop)
    assert steps == [(TAU, tm.Prefix(A, loop))]


def test_step_walks_a_sum_once(monkeypatch):
    # one walk collects the moves of every summand, so a sum of n summands
    # costs O(n); concatenating per Sum node cost O(n^2)
    entered = []
    steps = oracles._steps

    def counted(term):
        entered.append(term)
        return steps(term)

    monkeypatch.setattr(oracles, "_steps", counted)
    actions = [visible(f"a{i}") for i in range(200)]
    t = tm.Prefix(actions[0], tm.Success())
    for a in actions[1:]:
        t = tm.Sum(t, tm.Prefix(a, tm.Success()))
    assert oracles.test_step(t) == [(a, tm.Success()) for a in actions]
    assert len(entered) == 1


def test_step_compares_no_terms(monkeypatch):
    # duplicate moves are told apart by printed target: hashing a deep
    # target recurses through C, which Python 3.12 refuses at about 500
    # levels
    loop, copy = (parse_test("mu X. (a.X + b.w.0)") for _ in range(2))
    chain = tm.Success()
    for _ in range(600):
        chain = tm.Prefix(A, chain)

    def refuse(*_):
        raise AssertionError("test_step hashed or compared a test term")

    for cls in (tm.Nil, tm.Success, tm.Prefix, tm.Var, tm.Sum, tm.Mu):
        monkeypatch.setattr(cls, "__hash__", refuse)
        monkeypatch.setattr(cls, "__eq__", refuse)
    # the copy is equal to the loop but another object
    steps = oracles.test_step(tm.Sum(tm.Sum(tm.Prefix(A, loop), tm.Prefix(B, chain)), tm.Prefix(A, copy)))
    assert [a for a, _ in steps] == [A, B]
    assert steps[0][1] is loop and steps[1][1] is chain


def test_step_requires_closed():
    with pytest.raises(tm.TestError):
        oracles.test_step(tm.Var("X"))


def test_explore_requires_closed():
    with pytest.raises(tm.TestError, match="free: X, Z$"):
        tm.explore(parse_test("a.X + mu Y. (Z + Y + X)"))


def test_duplicate_moves_collapse():
    t = tm.Sum(tm.Prefix(A, tm.Nil()), tm.Prefix(A, tm.Nil()))
    assert oracles.test_step(t) == [(A, tm.Nil())]


def test_substitute_shadowing_and_capture():
    inner = tm.Mu("X", tm.Var("X"))
    assert tm.substitute(inner, "X", tm.Success()) == inner
    t = tm.Mu("X", tm.Prefix(A, tm.Var("Y")))
    out = tm.substitute(t, "Y", tm.Var("X"))
    assert isinstance(out, tm.Mu)
    assert out.var != "X"
    assert tm.free_vars(out) == frozenset({"X"})
    # both binders must move: the outer one captures the incoming X, and
    # renaming it to X1 would then be captured by the inner binder
    nested = tm.Mu("X", tm.Mu("X1", tm.Prefix(A, tm.Sum(tm.Var("Y"), tm.Var("X")))))
    out = tm.substitute(nested, "Y", tm.Var("X"))
    assert format_test(out) == "mu X1. mu X11. a.(X + X1)"


def test_canonical_alpha_equivalence():
    left = tm.Mu("X", tm.Prefix(A, tm.Var("X")))
    right = tm.Mu("LOOP", tm.Prefix(A, tm.Var("LOOP")))
    assert oracles.canonical(left) == oracles.canonical(right)


def test_explore_compares_no_terms(monkeypatch):
    # states are told apart by interned int ids; hashing or comparing a
    # deep term recurses through C, which Python 3.12 refuses at about
    # 500 levels
    def refuse(*_):
        raise AssertionError("explore hashed or compared a test term")

    for cls in (tm.Nil, tm.Success, tm.Prefix, tm.Var, tm.Sum, tm.Mu):
        monkeypatch.setattr(cls, "__hash__", refuse)
        monkeypatch.setattr(cls, "__eq__", refuse)
    # unfolding revisits both loops under new binder names
    lts, _, _ = tm.explore(parse_test("mu X. a.mu Y. (b.Y + a.X + w.0)"))
    assert len(lts.states) == 5


# binders that shadow one another, reuse a name after an unfolding or are
# named like the canonical names B0, B1, ...
CAPTURE_PRONE = [
    "mu X. mu X. (a.X + b.mu X. (X + tau.X))",
    "mu X. mu X. mu X. (a.X + w.0)",
    "mu B0. mu B1. (a.B0 + b.B1 + tau.mu B1. (B0 + c.B1))",
    "mu B1. a.mu B0. (b.B1 + c.B0 + w.0)",
    "mu X. a.mu Y. (b.Y + a.X + w.0)",
    "mu X. (a.mu Y. mu Z. (X + Y + b.Z) + tau.mu X. (c.X + w.0))",
    "mu X. mu Y. (a.X + b.Y + tau.(mu X. c.X + Y))",
    "mu X. (X + a.mu Y. (Y + b.X))",
]


def test_explore_matches_oracle():
    cfg = TrialConfig(max_test_depth=7)
    terms = [generate_test(cfg, spawn_rng(23, "explore-oracle", i)) for i in range(500)]
    terms += [parse_test(text) for text in CAPTURE_PRONE]
    for t in terms:
        lts, root, names = tm.explore(t)
        states, transitions, expected = oracles.explore_oracle(t)
        assert root == "t0"
        assert list(lts.states) == states, format_test(t)
        assert list(lts.transitions) == transitions, format_test(t)
        assert dict(names) == expected, format_test(t)


def test_explore_builds_terms_on_read(monkeypatch):
    t = parse_test("mu X. a.mu Y. (b.Y + a.X + w.0)")
    _, _, expected = oracles.explore_oracle(t)

    def refuse(*_):
        raise AssertionError("explore substituted a term")

    for module in (tm, fm):
        monkeypatch.setattr(module, "substitute", refuse)
    built = []
    for cls in (tm.Prefix, tm.Mu):
        def counted(self, *args, _init=cls.__init__):
            built.append(self)
            _init(self, *args)

        monkeypatch.setattr(cls, "__init__", counted)
    lts, _, terms = tm.explore(t)
    assert len(lts.states) == 5
    assert built == []
    assert len(terms) == 5 and list(terms) == list(lts.states)
    first = terms["t1"]
    assert built
    assert first == expected["t1"]
    assert terms["t1"] is first
    assert dict(terms) == expected
    with pytest.raises(TypeError):
        terms["t9"] = first


def test_explore_loop_is_two_states():
    loop = tm.Mu("X", tm.Prefix(A, tm.Var("X")))
    lts, root, terms = tm.explore(loop)
    assert root == "t0"
    assert len(lts.states) == 2
    assert len(terms) == 2
    assert set(lts.transitions) == {
        ("t0", TAU, "t1"),
        ("t1", A, "t0"),
    }


def test_explore_box_compilation_shape():
    # a.0 + tau.w.0 reaches exactly three terms: itself, 0 and w.0
    t = tm.Sum(tm.Prefix(A, tm.Nil()), tm.Prefix(TAU, tm.Success()))
    lts, root, terms = tm.explore(t)
    assert len(lts.states) == 3
    assert lts.omega_mask  # the success state is visible in the system
    assert root == "t0"


def test_explore_alignment():
    t = tm.Prefix(A, tm.Prefix(B, tm.Success()))
    lts, root, terms = tm.explore(t)
    assert list(lts.states) == [f"t{i}" for i in range(len(terms))]
    # terms maps each state name to the canonical term interned there
    assert terms["t0"] == oracles.canonical(t)
    assert terms["t2"] == tm.Success()


def test_explore_cap():
    t = tm.Prefix(A, tm.Prefix(A, tm.Prefix(A, tm.Nil())))
    with pytest.raises(tm.CapExceeded) as err:
        tm.explore(t, max_states=2)
    assert str(err.value) == "more than 2 reachable test terms; frontier starts: a.0"
    # the frontier terms are printed in canonical form and clipped
    loops = parse_test("mu X. (a.mu Y. mu Z. (X + Y + b.Z) + tau.mu X. (c.X + w.0))")
    with pytest.raises(tm.CapExceeded) as err:
        tm.explore(loops, max_states=4)
    assert str(err.value) == (
        "more than 4 reachable test terms; frontier starts: "
        "(mu B0. a.mu B1. mu B2. B0 + B1 + b.B2 + tau.mu B3. c.B3 + w..."
    )
    with pytest.raises(tm.CapExceeded) as err:
        tm.explore(parse_test("mu X. (a.mu Y. (b.Y + a.X) + b.c.X + c.w.0 + tau.X)"), max_states=5)
    assert str(err.value) == (
        "more than 5 reachable test terms; frontier starts: "
        "w.0, c.mu B0. a.mu B1. b.B1 + a.B0 + b.c.B0 + c.w.0 + tau.B0"
    )


def test_explore_cap_prints_deep_frontier_terms():
    # the frontier sample is printed in full and then clipped, and the
    # printer keeps its own stack, so a term 5000 prefixes deep is no
    # RecursionError
    chain = tm.Mu("X", reduce(lambda body, _: tm.Prefix(A, body), range(5000), tm.Var("X")))
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        with pytest.raises(tm.CapExceeded) as err:
            tm.explore(chain, max_states=10)
    finally:
        sys.setrecursionlimit(old)
    assert str(err.value) == "more than 10 reachable test terms; frontier starts: " + "a." * 30 + "..."


# sha256 of explore's states, transitions and formatted terms over the
# inputs of test_explore_output_frozen; a change to stepping, substitution
# or canonical renaming shows up here.
EXPLORE_DIGEST = "46bc2c92ba1581b308d59c760ae2385a112c8959b9a3a1f2fbfe6f9d41726a8b"


def test_explore_output_frozen():
    cfg = TrialConfig(max_test_depth=7)
    terms = [generate_test(cfg, spawn_rng(11, "explore", i)) for i in range(200)]
    terms.append(parse_test("mu X. a.(mu Y. (b.X + tau.Y + c.mu Z. (a.Z + b.Y + w.0)))"))
    terms.append(parse_test("mu X. mu Y. (a.X + b.Y + tau.(mu X. c.X + Y))"))
    h = hashlib.sha256()
    for t in terms:
        lts, root, names = tm.explore(t)
        transitions = [(s, str(a), d) for s, a, d in lts.transitions]
        formatted = sorted((k, format_test(v)) for k, v in names.items())
        h.update(repr((root, lts.states, transitions, formatted)).encode())
    assert h.hexdigest() == EXPLORE_DIGEST
