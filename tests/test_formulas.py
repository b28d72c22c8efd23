import gc
import weakref
from functools import cache

import pytest

import rechml
from rechml import formulas as fm
from rechml import testterms as tm
from rechml import textio, translate
from rechml.generators import TrialConfig, generate_formula, spawn_rng
from rechml.lts import TAU, OMEGA, visible

import oracles

A = visible("a")
B = visible("b")


def test_modalities_reject_omega():
    with pytest.raises(fm.FormulaError):
        fm.Dia(OMEGA, fm.Tt())
    with pytest.raises(fm.FormulaError):
        fm.Box(OMEGA, fm.Tt())


def test_acc_normalizes_to_frozenset():
    acc = fm.Acc(["b", "a"])
    assert acc.actions == frozenset({"a", "b"})
    # the reserved-name rule is Action's; Acc reports it at construction,
    # before interpret would meet the name
    for name in ("w", "tau", "omega", "", 3):
        with pytest.raises(fm.FormulaError):
            fm.Acc([name])
    # a bare string is one name, not a set of one-letter names
    with pytest.raises(fm.FormulaError, match="not the string 'ab'"):
        fm.Acc("ab")


def test_free_vars():
    phi = fm.Min("X", fm.And(fm.Var("X"), fm.Box(A, fm.Var("Y"))))
    assert fm.free_vars(phi) == frozenset({"Y"})
    assert fm.free_vars(fm.Tt()) == frozenset()


def test_free_set_built_with_node():
    # built bottom-up with each node, so a chain deeper than any recursion
    # limit still answers
    boxes = fm.Var("Y")
    prefixes = tm.Var("X")
    for _ in range(100_000):
        boxes = fm.Box(A, boxes)
        prefixes = tm.Prefix(A, prefixes)
    assert fm.free_vars(boxes) == frozenset({"Y"})
    assert fm.free_vars(prefixes) == frozenset({"X"})
    assert fm.free_vars(fm.Min("Y", boxes)) == frozenset()
    assert fm.free_vars(tm.Mu("X", prefixes)) == frozenset()
    assert fm.Min("X", fm.Or(fm.Var("X"), fm.Var("Z"))).free == frozenset({"Z"})
    # the set is a slot: fields, equality, hashing and repr are unchanged
    assert vars(fm.Box(A, fm.Tt())) == {"action": A, "body": fm.Tt()}
    assert vars(fm.Var("X")) == {"name": "X"}
    assert fm.Var("X") == fm.Var("X")
    assert hash(fm.Var("X")) == hash(fm.Var("X"))
    assert repr(fm.Var("X")) == "Var(name='X')"


def test_substitute_plain():
    phi = fm.Dia(A, fm.Var("X"))
    out = fm.substitute(phi, "X", fm.Tt())
    assert out == fm.Dia(A, fm.Tt())
    # substitution stops at a shadowing binder
    shadowed = fm.Min("X", fm.Dia(A, fm.Var("X")))
    assert fm.substitute(shadowed, "X", fm.Tt()) == shadowed


def test_substitute_avoids_capture():
    # replacing Y under a binder named X must not capture the X inside
    # the replacement
    phi = fm.Min("X", fm.Dia(A, fm.Var("Y")))
    out = fm.substitute(phi, "Y", fm.Var("X"))
    assert isinstance(out, fm.Min)
    assert out.var != "X"
    assert fm.free_vars(out) == frozenset({"X"})


def test_canonical_renames_binders_only():
    left = fm.Min("X", fm.Or(fm.Var("X"), fm.Min("Y", fm.Var("Y"))))
    right = fm.Min("P", fm.Or(fm.Var("P"), fm.Min("Q", fm.Var("Q"))))
    assert oracles.canonical(left) == oracles.canonical(right)
    open_formula = fm.Dia(A, fm.Var("Z"))
    assert oracles.canonical(open_formula) == open_formula


def test_fragments():
    may = fm.Min("X", fm.Or(fm.Dia(A, fm.Var("X")), fm.Tt()))
    must = fm.Min("X", fm.And(fm.Box(A, fm.Var("X")), fm.Acc({"a"})))
    assert fm.is_mayhml(may) and not fm.is_musthml(may)
    assert fm.is_musthml(must) and not fm.is_mayhml(must)
    assert fm.is_mayhml(fm.Tt()) and fm.is_musthml(fm.Tt())
    # Max is in neither testable fragment
    assert not fm.is_mayhml(fm.Max("X", fm.Var("X")))
    with pytest.raises(fm.FormulaError):
        fm.is_musthml(fm.Var("X"))


def test_fragment_offender_names_the_subterm():
    phi = fm.And(fm.Tt(), fm.Or(fm.Tt(), fm.Ff()))
    offender = fm.fragment_offender(phi, "must")
    assert isinstance(offender, fm.Or)


def test_tt_grammar():
    assert fm.is_tt_grammar(fm.Tt())
    assert fm.is_tt_grammar(fm.And(fm.Tt(), fm.Min("X", fm.Tt())))
    assert not fm.is_tt_grammar(fm.Box(A, fm.Tt()))
    assert not fm.is_tt_grammar(fm.Min("X", fm.And(fm.Var("X"), fm.Tt())))
    assert not fm.is_tt_grammar(fm.Acc(set()))


def test_nesting_depth():
    assert fm.nesting_depth(fm.Tt()) == 0
    phi = fm.Min("X", fm.Box(A, fm.Min("Y", fm.Var("Y"))))
    assert fm.nesting_depth(phi) == 2
    side = fm.And(fm.Min("X", fm.Tt()), fm.Min("Y", fm.Tt()))
    assert fm.nesting_depth(side) == 1


def test_approximants_frozen():
    # level zero collapses everything to ff; each unfolding costs a level,
    # boxes and conjunctions keep the level they are given
    phi = fm.Min("X", fm.Box(A, fm.Var("X")))
    assert fm.approximant(phi, 0) == fm.Ff()
    assert fm.approximant(phi, 1) == fm.Ff()
    assert fm.approximant(phi, 2) == fm.Box(A, fm.Ff())
    assert fm.approximant(phi, 4) == fm.Box(A, fm.Box(A, fm.Box(A, fm.Ff())))
    # binder-free formulas are their own approximants past level zero
    flat = fm.Box(A, fm.Acc({"a", "b"}))
    assert fm.approximant(flat, 2) == flat
    assert fm.approximant(fm.Tt(), 0) == fm.Ff()
    assert fm.approximant(fm.Tt(), 1) == fm.Tt()


def test_approximant_requires_closed_must():
    with pytest.raises(fm.FormulaError):
        fm.approximant(fm.Var("X"), 1)
    with pytest.raises(fm.FormulaError):
        fm.approximant(fm.Dia(A, fm.Tt()), 1)


def _reference_approximant(node, k):
    if k == 0:
        return fm.Ff()
    match node:
        case fm.Tt() | fm.Ff() | fm.Acc():
            return node
        case fm.Box(a, b):
            return fm.Box(a, _reference_approximant(b, k))
        case fm.And(l, r):
            return fm.And(_reference_approximant(l, k), _reference_approximant(r, k))
        case fm.Min(x, b):
            return _reference_approximant(fm.substitute(b, x, node), k - 1)


def test_approximant_survives_recycled_ids(monkeypatch):
    # approximant memoises on id(); the shim hands out small ints as ids
    # and gives an object's int to the next new object once it dies, so an
    # unfolding that died too early leaves a stale memo entry behind
    small, free, fresh = {}, [], [0]

    def release(key):
        free.append(small.pop(key))

    def small_id(obj):
        key = id(obj)
        got = small.get(key)
        if got is None:
            if free:
                got = free.pop()
            else:
                got = fresh[0]
                fresh[0] += 1
            small[key] = got
            weakref.finalize(obj, release, key)
        return got

    monkeypatch.setattr(fm, "id", small_id, raising=False)
    cfg = TrialConfig()
    for i in range(600):
        formula = generate_formula(cfg, spawn_rng(7, "appr", i), "must")
        for k in range(6):
            expected = _reference_approximant(formula, k)
            got = fm.approximant(formula, k)
            assert got == expected, (i, k)


def test_sim_formula_validation():
    with pytest.raises(fm.FormulaError):
        fm.SimFormula(("X", "X"), (fm.Tt(), fm.Tt()), 0)
    with pytest.raises(fm.FormulaError):
        fm.SimFormula(("X",), (fm.Tt(),), 1)
    with pytest.raises(fm.FormulaError):
        fm.SimFormula(("X",), (fm.Tt(), fm.Tt()), 0)


def test_bekic_two_variable_example():
    sim = fm.SimFormula(("X", "Y"), (fm.Dia(A, fm.Var("Y")), fm.Tt()), 0)
    out = fm.bekic_eliminate(sim)
    assert out == fm.Min("X", fm.Dia(A, fm.Min("Y", fm.Tt())))


def test_bekic_projection_moves_to_front():
    sim = fm.SimFormula(("X", "Y"), (fm.Tt(), fm.Dia(A, fm.Var("X"))), 1)
    out = fm.bekic_eliminate(sim)
    assert fm.free_vars(out) == frozenset()
    assert isinstance(out, fm.Min)
    assert out.var == "Y"


def test_bekic_substitutes_where_free(monkeypatch):
    # Z_i = [a]Z_{i+1}: each eliminated variable is free in one body only,
    # so it is substituted there and nowhere else
    calls = [0]
    original = fm._substitute_many

    def counted(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(fm, "_substitute_many", counted)
    n = 300
    names = tuple(f"Z{i}" for i in range(n))
    bodies = tuple(fm.Box(A, fm.Var(z)) for z in names[1:]) + (fm.Tt(),)
    out = fm.bekic_eliminate(fm.SimFormula(names, bodies, 0))
    assert calls[0] <= n
    node = out
    for z in names[:-1]:
        assert node.var == z and isinstance(node.body, fm.Box)
        node = node.body.body
    assert node == fm.Min(names[-1], fm.Tt())


def test_bekic_drops_unreached_equations(monkeypatch):
    # U refers to X and Z is free in U, but X never reaches U, W or Z (the
    # Z in Y's body is bound there), so their equations cannot enter the
    # result: it equals the elimination of the reached equations alone, and
    # no substitution goes into an unreached body
    X, Y, Z, U, W = (fm.Var(v) for v in "XYZUW")
    bodies = {
        "X": fm.Or(fm.Dia(A, Y), fm.Box(B, X)),
        "Z": fm.Dia(A, U),
        "U": fm.Or(X, Z),
        "Y": fm.And(fm.Dia(B, X), fm.Min("Z", fm.Dia(A, Z))),
        "W": fm.Dia(A, fm.And(W, Z)),
    }
    calls = []
    original = fm._substitute_many

    def counted(*args):
        calls.extend(args[1])  # the substituted variables
        return original(*args)

    monkeypatch.setattr(fm, "_substitute_many", counted)
    for root in "XY":
        full = fm.SimFormula(tuple(bodies), tuple(bodies.values()), list(bodies).index(root))
        reached = {v: b for v, b in bodies.items() if v in "XY"}
        kept = fm.SimFormula(tuple(reached), tuple(reached.values()), list(reached).index(root))
        calls.clear()
        out = fm.bekic_eliminate(full)
        assert set(calls) <= {"X", "Y"}
        assert out == fm.bekic_eliminate(kept)
        assert out.var == root and not out.free


def test_bekic_elimination_is_capped(monkeypatch):
    # the cap counts the memo entries of the substitutions, two per step
    # here: the variable replaced and the box above it
    X0, X1, X2 = (fm.Var(v) for v in ("X0", "X1", "X2"))
    sim = fm.SimFormula(("X0", "X1", "X2"), (fm.Box(A, X1), fm.Box(A, X2), fm.And(X0, X1)), 0)
    monkeypatch.setattr(fm, "MAX_ELIMINATION_NODES", 4)
    assert fm.bekic_eliminate(sim) == fm.Min("X0", fm.Box(A, fm.Min("X1", fm.Box(A, fm.Min(
        "X2", fm.And(X0, X1))))))
    monkeypatch.setattr(fm, "MAX_ELIMINATION_NODES", 3)
    with pytest.raises(tm.CapExceeded, match="^Bekic elimination needs more than 3 formula nodes$"):
        fm.bekic_eliminate(sim)
    assert rechml.CapExceeded is tm.CapExceeded


def test_fresh_name_probes_suffixes():
    assert fm.fresh_name("X", set()) == "X"
    assert fm.fresh_name("X", {"X"}) == "X1"
    assert fm.fresh_name("X", {"X", "X1", "X2"}) == "X3"


def _nested_recursion(depth, chain, letters):
    # level i: mu Xi. (chain letters.(level i+1 + X(i//2)) + two letters.exit),
    # exit w.0 on even levels and Xi on odd ones, as in the compile-test
    # terms of the cli benchmark
    def prefixes(n, tail):
        for k in range(n):
            tail = tm.Prefix(visible(letters[k % len(letters)]), tail)
        return tail

    def level(i):
        back = tm.Var(f"X{i // 2}")
        inner = tm.Sum(back, tm.Success()) if i == depth - 1 else tm.Sum(level(i + 1), back)
        exit_ = tm.Success() if i % 2 == 0 else tm.Var(f"X{i}")
        return tm.Mu(f"X{i}", tm.Sum(prefixes(chain, inner), prefixes(2, exit_)))

    return level(0)


@cache
def _walks():
    test = _nested_recursion(4, 12, "abcab")
    lts, root = tm.reachable_lts(test)
    assert len(lts.states) == 60
    sim = translate.test_lts_to_must_system(lts, root)
    must = fm.bekic_eliminate(sim)
    may = translate.test_to_may_formula(test)
    formula_text, test_text = textio.format_formula(may), textio.format_test(test)
    lts_text = textio.format_lts(lts, root)
    return {
        "bekic_eliminate": lambda: fm.bekic_eliminate(sim),
        "approximant": lambda: fm.approximant(must, 3),
        "formula_to_must_test": lambda: translate.formula_to_must_test(must),
        "formula_to_may_test": lambda: translate.formula_to_may_test(may),
        "format_formula": lambda: textio.format_formula(must),
        "format_test": lambda: textio.format_test(test),
        "tree_size": lambda: fm.tree_size(must),
        "nesting_depth": lambda: fm.nesting_depth(must),
        "is_musthml": lambda: fm.is_musthml(must),
        "is_mayhml": lambda: fm.is_mayhml(may),
        "substitute": lambda: fm.substitute(must.body, must.var, must),
        "parse_formula": lambda: textio.parse_formula(formula_text),
        "parse_test": lambda: textio.parse_test(test_text),
        "parse_lts": lambda: textio.parse_lts(lts_text),
    }


@pytest.mark.parametrize("walk", [
    "approximant", "bekic_eliminate", "format_formula", "format_test", "formula_to_may_test",
    "formula_to_must_test", "is_mayhml", "is_musthml", "nesting_depth", "parse_formula", "parse_lts",
    "parse_test", "substitute", "tree_size",
])
def test_walks_leave_no_reference_cycle(walk):
    # a recursive walk defined as a nested function that calls itself
    # leaves the function, its closure cells and its memo to the cycle
    # collector on every call
    call = _walks()[walk]
    call()  # fills the caches of names and actions
    gc.collect()
    gc.disable()
    try:
        call()
        left = gc.collect()
    finally:
        gc.enable()
    assert left == 0, left
