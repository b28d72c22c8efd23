import pytest

from rechml import testterms as tm
from rechml.lts import OMEGA, TAU, visible

A = visible("a")
B = visible("b")


def test_prefix_rejects_omega():
    # success is only ever spelled as the Success leaf
    with pytest.raises(tm.TestError):
        tm.Prefix(OMEGA, tm.Nil())


def test_step_rules_frozen():
    assert tm.test_step(tm.Nil()) == []
    assert tm.test_step(tm.Success()) == [(OMEGA, tm.Nil())]
    assert tm.test_step(tm.Prefix(A, tm.Success())) == [(A, tm.Success())]
    summed = tm.Sum(tm.Prefix(A, tm.Nil()), tm.Prefix(TAU, tm.Success()))
    assert tm.test_step(summed) == [(A, tm.Nil()), (TAU, tm.Success())]
    loop = tm.Mu("X", tm.Prefix(A, tm.Var("X")))
    steps = tm.test_step(loop)
    assert steps == [(TAU, tm.Prefix(A, loop))]


def test_step_requires_closed():
    with pytest.raises(tm.TestError):
        tm.test_step(tm.Var("X"))


def test_duplicate_moves_collapse():
    t = tm.Sum(tm.Prefix(A, tm.Nil()), tm.Prefix(A, tm.Nil()))
    assert tm.test_step(t) == [(A, tm.Nil())]


def test_substitute_shadowing_and_capture():
    inner = tm.Mu("X", tm.Var("X"))
    assert tm.substitute(inner, "X", tm.Success()) == inner
    t = tm.Mu("X", tm.Prefix(A, tm.Var("Y")))
    out = tm.substitute(t, "Y", tm.Var("X"))
    assert isinstance(out, tm.Mu)
    assert out.var != "X"
    assert tm.free_vars(out) == frozenset({"X"})


def test_canonical_alpha_equivalence():
    left = tm.Mu("X", tm.Prefix(A, tm.Var("X")))
    right = tm.Mu("LOOP", tm.Prefix(A, tm.Var("LOOP")))
    assert tm.canonical(left) == tm.canonical(right)


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
    assert terms["t0"] == tm.canonical(t)
    assert terms["t2"] == tm.Success()


def test_explore_cap():
    t = tm.Prefix(A, tm.Prefix(A, tm.Prefix(A, tm.Nil())))
    with pytest.raises(tm.CapExceeded):
        tm.explore(t, max_states=2)
