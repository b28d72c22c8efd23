import hashlib
import random
import time
import tracemalloc
from functools import reduce

import pytest

from rechml import cli
from rechml import formulas as fm
from rechml import testterms as tm
from rechml import textio
from rechml.formulas import FormulaError, bekic_eliminate
from rechml.generators import TrialConfig, generate_formula, generate_test, spawn_rng
from rechml.lts import OMEGA, TAU, Lts, visible
from rechml.semantics import interpret_states
from rechml.testterms import reachable_lts
from rechml.textio import format_formula, format_test, parse_formula, parse_lts, parse_test
from rechml.translate import _must_test, formula_to_may_test, formula_to_must_test
from rechml.translate import test_lts_to_may_system as lts_to_may_system
from rechml.translate import test_lts_to_must_system as lts_to_must_system
from rechml.translate import test_to_may_formula as to_may_formula
from rechml.translate import test_to_must_formula as to_must_formula

import oracles
from test_cli import _dense_test_lts

A = visible("a")
B = visible("b")

W = tm.Success()


def test_must_compiler_frozen():
    assert formula_to_must_test(fm.Tt()) == W
    assert formula_to_must_test(fm.Ff()) == tm.Nil()
    assert formula_to_must_test(fm.Acc(set())) == tm.Nil()
    assert formula_to_must_test(fm.Acc({"b", "a"})) == \
        tm.Sum(tm.Prefix(A, W), tm.Prefix(B, W))
    assert formula_to_must_test(fm.Box(TAU, fm.Ff())) == tm.Prefix(TAU, tm.Nil())
    # refusing the action must remain a way to pass
    assert formula_to_must_test(fm.Box(A, fm.Ff())) == \
        tm.Sum(tm.Prefix(A, tm.Nil()), tm.Prefix(TAU, W))


def test_must_conjunction_of_truths_succeeds_immediately():
    # tau.w.0 + tau.w.0 would strand divergent processes; the compiler must
    # notice the conjunction cannot fail
    phi = fm.And(fm.Tt(), fm.Min("X", fm.Tt()))
    assert formula_to_must_test(phi) == W
    mixed = fm.And(fm.Tt(), fm.Box(A, fm.Tt()))
    assert mixed and formula_to_must_test(mixed) == tm.Sum(
        tm.Prefix(TAU, W),
        tm.Prefix(TAU, tm.Sum(tm.Prefix(A, W), tm.Prefix(TAU, W))),
    )


def test_must_min_unwraps_when_body_is_closed():
    phi = fm.Min("X", fm.Box(TAU, fm.Tt()))
    assert formula_to_must_test(phi) == tm.Prefix(TAU, W)
    looping = fm.Min("X", fm.Box(A, fm.Var("X")))
    assert formula_to_must_test(looping) == tm.Mu(
        "X", tm.Sum(tm.Prefix(A, tm.Var("X")), tm.Prefix(TAU, W)))


def test_must_compiler_variant_only_drops_box_escapes():
    # the variant verify --self-test-mutation runs differs from the must
    # compiler exactly by the tau.w.0 escape of every visible box
    def agree(phi):
        assert _must_test(phi, escape=True) == formula_to_must_test(phi)
        assert _must_test(phi, escape=False) == oracles.strip_box_escapes(formula_to_must_test(phi))

    fixed = fm.And(
        fm.Min("X", fm.And(fm.Box(A, fm.Var("X")), fm.Box(TAU, fm.Box(B, fm.Acc({"a", "b"}))))),
        fm.Box(A, fm.Ff()),
    )
    agree(fixed)
    assert _must_test(fixed, escape=False) != formula_to_must_test(fixed)
    assert _must_test(fm.Box(A, fm.Ff()), escape=False) == tm.Prefix(A, tm.Nil())
    cfg = TrialConfig()
    for trial in range(500):
        agree(generate_formula(cfg, spawn_rng(41, "must_variant", trial), "must"))


def test_may_compiler_frozen():
    assert formula_to_may_test(fm.Tt()) == W
    assert formula_to_may_test(fm.Ff()) == tm.Nil()
    assert formula_to_may_test(fm.Dia(A, fm.Tt())) == tm.Prefix(A, W)
    assert formula_to_may_test(fm.Or(fm.Tt(), fm.Ff())) == \
        tm.Sum(tm.Prefix(TAU, W), tm.Prefix(TAU, tm.Nil()))
    # min compiles to recursion even with a closed body
    phi = fm.Min("X", fm.Tt())
    assert formula_to_may_test(phi) == tm.Mu("X", W)


def test_compilers_reject_wrong_fragment_and_open_formulas():
    with pytest.raises(FormulaError):
        formula_to_must_test(fm.Or(fm.Tt(), fm.Tt()))
    with pytest.raises(FormulaError):
        formula_to_may_test(fm.Box(A, fm.Tt()))
    with pytest.raises(FormulaError):
        formula_to_may_test(fm.Max("X", fm.Var("X")))
    with pytest.raises(FormulaError):
        formula_to_must_test(fm.Box(A, fm.Var("X")))


def test_must_system_equations_frozen():
    # a.w.0: one stable state with a single visible move, then success
    t = tm.Prefix(A, W)
    sim = lts_to_must_system(*reachable_lts(t))
    assert sim.index == 0
    x0, x1, x2 = sim.variables
    assert sim.bodies[0] == fm.And(fm.Box(A, fm.Var(x1)), fm.Acc({"a"}))
    assert sim.bodies[1] == fm.Tt()
    assert sim.bodies[2] == fm.Ff()


def test_must_system_unstable_state():
    t = tm.Sum(tm.Prefix(A, W), tm.Prefix(TAU, tm.Nil()))
    lts, root = reachable_lts(t)
    sim = lts_to_must_system(lts, root)
    body = sim.bodies[lts.state_index(root)]
    # an unstable state contributes boxes for every move and no Acc
    boxes = []
    cursor = body
    while isinstance(cursor, fm.And):
        boxes.append(cursor.left)
        cursor = cursor.right
    boxes.append(cursor)
    kinds = sorted(b.action.kind for b in boxes)
    assert kinds == ["tau", "visible"]
    assert not any(isinstance(b, fm.Acc) for b in boxes)


def test_may_system_equations_frozen():
    t = tm.Sum(tm.Prefix(A, W), tm.Prefix(TAU, tm.Nil()))
    lts, root = reachable_lts(t)
    sim = lts_to_may_system(lts, root)
    body = sim.bodies[lts.state_index(root)]
    assert isinstance(body, fm.Or)
    produced = to_may_formula(t)
    assert fm.is_mayhml(produced)


def test_round_trip_formula_test_formula_semantics():
    from rechml.generators import TrialConfig, generate_formula, generate_lts, spawn_rng

    cfg = TrialConfig(max_states=6, max_formula_depth=4)
    for trial in range(25):
        rng = spawn_rng(31, "round_trip", trial)
        lts = generate_lts(cfg, rng)
        phi = generate_formula(cfg, rng, "must")
        back = to_must_formula(formula_to_must_test(phi))
        assert fm.is_musthml(back)
        assert interpret_states(lts, phi) == interpret_states(lts, back)


def test_round_trip_may_semantics():
    from rechml.generators import TrialConfig, generate_formula, generate_lts, spawn_rng

    cfg = TrialConfig(max_states=6, max_formula_depth=4)
    for trial in range(25):
        rng = spawn_rng(37, "round_trip_may", trial)
        lts = generate_lts(cfg, rng)
        phi = generate_formula(cfg, rng, "may")
        back = to_may_formula(formula_to_may_test(phi))
        assert fm.is_mayhml(back)
        assert interpret_states(lts, phi) == interpret_states(lts, back)


def test_variable_names_are_stable():
    # X_ and the state's name, the same on every build, for an explored
    # term and for a system read from a file
    explored = reachable_lts(parse_test("mu X. (a.mu Y. (b.Y + a.X) + b.c.X + c.w.0 + tau.X)"))
    read = textio.parse_lts("lts t\ninit q0\nq0 a q1\nq0 tau ok\nq1 b q0\nok omega ok\n")
    for (lts, root), states in ((explored, [f"t{i}" for i in range(7)]), (read, ["q0", "q1", "ok"])):
        assert list(lts.states) == states
        for build in (lts_to_must_system, lts_to_may_system):
            once, again = build(lts, root), build(lts, root)
            assert once.variables == again.variables == tuple(f"X_{s}" for s in states)


def test_state_names_build_no_terms(monkeypatch):
    # variable names come from the state names alone: no canonical Test is
    # built or printed to name them
    lts, root = reachable_lts(parse_test("mu X. (a.mu Y. (b.Y + a.X) + b.c.X + c.w.0 + tau.X)"))
    built = []
    for cls in (tm.Prefix, tm.Mu):
        def counted(self, *args, _init=cls.__init__):
            built.append(self)
            _init(self, *args)

        monkeypatch.setattr(cls, "__init__", counted)

    def refuse(*_):
        raise AssertionError("a state name was printed from a built term")

    monkeypatch.setattr(textio, "format_test", refuse)
    systems = [build(lts, root) for build in (lts_to_must_system, lts_to_may_system)]
    assert built == []
    expected = tuple(f"X_{s}" for s in lts.states)
    assert len(expected) == 7
    assert all(sim.variables == expected for sim in systems)


def test_recursive_chain_system_in_bounded_memory(monkeypatch):
    # the path compile-test takes from a test term to its equations, on
    # mu X. a.a. ... a.X with 5000 prefixes; naming each variable from the
    # printed canonical term of its state kept the text of every closed
    # subterm of every state, about 150 MB here.  The term is built by
    # hand because parsing it nests 10000 calls deep.
    chain = tm.Mu("X", reduce(lambda body, _: tm.Prefix(A, body), range(5000), tm.Var("X")))
    monkeypatch.setattr(cli, "parse_test", lambda _: chain)
    tracemalloc.start()
    try:
        sim = lts_to_must_system(*cli._load_test_side("chain", 100_000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(sim.variables) == 5001
    assert peak < 32 * 2**20, peak


TRANSLATE_DIGEST = "58853cde68c296874746e71945177cadb5010edba366f1f872da69b0d85c2f9f"


def test_translation_output_frozen():
    # compiled tests, system variables and printed bodies
    cfg = TrialConfig(max_formula_depth=6, max_test_depth=5)
    h = hashlib.sha256()
    for trial in range(300):
        rng = spawn_rng(43, "translate", trial)
        must_phi = generate_formula(cfg, rng, "must")
        may_phi = generate_formula(cfg, rng, "may")
        lts, root = reachable_lts(generate_test(cfg, rng))
        h.update(format_test(formula_to_must_test(must_phi)).encode())
        h.update(format_test(formula_to_may_test(may_phi)).encode())
        for build in (lts_to_must_system, lts_to_may_system):
            sim = build(lts, root)
            bodies = [format_formula(b) for b in sim.bodies]
            h.update(repr((sim.variables, bodies, sim.index)).encode())
    assert h.hexdigest() == TRANSLATE_DIGEST


ELIMINATED_DIGEST = "0175c437a0ebc4bdee878a8f370e993433b83a80fcba7ec1acaeadff7bd42b12"


def _complete_test_lts(rng, n):
    # a move between every ordered pair of n distinct states, plus visible
    # moves from two of them into a success sink; only the labels are random
    names = [f"q{i}" for i in range(n)] + ["ok"]
    moves = []
    for i in range(n):
        for j in range(n):
            if i != j:
                moves.append((names[i], rng.choice((A, B, TAU)), names[j]))
        if i in (n // 2, n - 1):
            moves.append((names[i], rng.choice((A, B)), "ok"))
    moves.append(("ok", OMEGA, "ok"))
    return Lts(names, moves)


def test_eliminated_formula_output_frozen():
    # the printed single formula after elimination, whose subformulas are
    # shared objects, for seeded test terms and complete 5-state test LTSs
    cfg = TrialConfig(max_test_depth=5)
    sources = [reachable_lts(generate_test(cfg, spawn_rng(47, "eliminate", trial)))
               for trial in range(150)]
    sources += [(_complete_test_lts(random.Random(seed), 5), "q0") for seed in range(3)]
    h = hashlib.sha256()
    for lts, root in sources:
        for build in (lts_to_must_system, lts_to_may_system):
            text = format_formula(bekic_eliminate(build(lts, root)))
            h.update(f"{len(text)}:{text}".encode())
    assert h.hexdigest() == ELIMINATED_DIGEST


def _distinct(term):
    """The number of distinct node objects in term."""
    seen, stack = set(), [term]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node.children())
    return len(seen)


def _eliminated_dense(n):
    """(compiler, eliminated formula) for must and may of the dense n-state test."""
    lts, root = parse_lts(_dense_test_lts(n))
    return [(formula_to_must_test, bekic_eliminate(lts_to_must_system(lts, root))),
            (formula_to_may_test, bekic_eliminate(lts_to_may_system(lts, root)))]


def test_fold_combines_each_distinct_node_once():
    shape = fm.fold(fm.And(fm.Tt(), fm.Box(A, fm.Ff())), lambda node, parts: (type(node).__name__, *parts))
    assert shape == ("And", ("Tt",), ("Box", ("Ff",)))
    [(_, must), _] = _eliminated_dense(5)
    combined = []
    size = fm.fold(must, lambda node, sizes: combined.append(node) or 1 + sum(sizes))
    assert len(combined) == len({id(node) for node in combined}) == _distinct(must) == 119
    assert size == fm.tree_size(must) == 24_511


@pytest.mark.parametrize("n", [5, 6])
def test_shared_formulas_compile_in_their_shared_size(n):
    # each distinct subformula compiles once: the 6-state formulas print
    # as 5.4e7-node trees, and compiling them tree-wise did not finish
    for compile_, formula in _eliminated_dense(n):
        start = time.perf_counter()
        test = compile_(formula)
        assert time.perf_counter() - start < 1.0
        assert _distinct(test) <= 3 * _distinct(formula)
        if n == 5:
            copy = parse_formula(format_formula(formula))
            assert _distinct(copy) == fm.tree_size(formula)
            assert test == compile_(copy)


def test_must_compiler_walks_once(monkeypatch):
    # the trivially-true rule and vacuous binders are read off one pass,
    # not off a fresh walk of each subformula
    calls = {"_offender": 0}
    original = fm._offender

    def counted(*args):
        calls["_offender"] += 1
        return original(*args)

    monkeypatch.setattr(fm, "_offender", counted)
    conj = fm.Box(A, fm.Ff())
    for _ in range(200):
        conj = fm.And(fm.Tt(), conj)
    binders = fm.Tt()
    for _ in range(200):
        binders = fm.Min("X", fm.Box(A, fm.And(fm.Var("X"), binders)))
    for phi in (conj, binders):
        calls.update(_offender=0)
        formula_to_must_test(phi)
        assert calls["_offender"] <= 2, calls


class _Box(fm.Box):
    pass


class _Tt(fm.Tt):
    pass


@pytest.mark.parametrize("compile_, formula", [
    (formula_to_must_test, fm.And(fm.Tt(), _Box(A, fm.Tt()))),
    (formula_to_must_test, fm.Min("X", fm.Box(A, fm.And(fm.Var("X"), _Tt())))),
    (formula_to_may_test, fm.Or(fm.Ff(), fm.Dia(A, _Tt()))),
    (lambda phi: fm.approximant(phi, 2), fm.Box(A, _Tt())),
])
def test_compilers_refuse_a_subclass_of_a_node_class(compile_, formula):
    # the compilers dispatch on exact node types, as the evaluator does
    with pytest.raises(FormulaError, match=r"^(not in the m(ust|ay) fragment|approximant hit unexpected node):? _"):
        compile_(formula)


@pytest.mark.parametrize("compile_, formula, fragment", [
    (formula_to_must_test, fm.Dia(A, _Tt()), "must"),
    (formula_to_may_test, fm.Box(A, _Tt()), "may"),
])
def test_an_unprintable_offender_is_named_by_repr(compile_, formula, fragment):
    # the printer refuses the subclass below the offender, so the message
    # falls back to its repr and the error class stays FormulaError
    with pytest.raises(FormulaError) as err:
        compile_(formula)
    assert str(err.value) == (f"{compile_.__name__}: subformula outside the {fragment} fragment: "
                              f"{formula!r}")
    printable = type(formula)(A, fm.Tt())
    with pytest.raises(FormulaError) as err:
        compile_(printable)
    assert str(err.value).endswith(f"outside the {fragment} fragment: {printable}")
