"""Translations between formulas and tests.

Formula to test: a must formula compiles to a test that a process must
pass exactly when it satisfies the formula, and dually for may.  The one
delicate case is conjunction on the must side: a conjunction that already
denotes the full state set must compile to immediate success rather than
to a tau-choice, because a divergent process must-fails any test that
cannot succeed at once.  Within the must fragment a subformula denotes the
full state set exactly when it compiles to success, so the compiler reads
the rule off the compiled arms in the same single pass.  The must
compiler has one deliberately wrong variant, in which a visible box loses
its tau escape to success; the harness's mutation self-test runs it.

Test to formula: the reachable states of the test induce one equation per
state, whose variable X_s is named after the state s; packaging them as
a simultaneous least fixpoint and eliminating it yields a single formula
in the corresponding fragment.
"""

from functools import reduce

from . import formulas as fm
from . import testterms as tm
from .formulas import Formula, FormulaError, SimFormula, bekic_eliminate
from .lts import OMEGA, TAU, Lts, visible
from .testterms import Test


def _fold(join, parts: list, empty):
    """The parts joined left-nested by the binary constructor join, or
    empty when there are none."""
    return reduce(join, parts) if parts else empty


def _require_fragment(formula, fragment: str, who: str):
    if formula.free:
        raise FormulaError(f"{who} expects a closed formula")
    bad = fm.fragment_offender(formula, fragment)
    if bad is not None:
        try:
            text = str(bad)
        except ValueError:  # the printer refuses a subclass of a node class below it
            text = repr(bad)
        raise FormulaError(f"{who}: subformula outside the {fragment} fragment: {text}")


def formula_to_must_test(formula: Formula) -> Test:
    """Compile a closed must formula to a test characterizing it under
    must-passing."""
    return _must_test(formula, escape=True)


def _must_test(formula: Formula, escape: bool) -> Test:
    """The must compiler.  With escape, a visible box [a]phi compiles to
    a.t + tau.w.0, so refusing a is a way to pass.  Without it the box
    compiles to a.t alone: a wrong compiler on purpose, which misjudges
    deadlocked processes.  verify --self-test-mutation runs that variant
    to show that the harness can see a broken translation."""
    _require_fragment(formula, "must", "formula_to_must_test")
    return _must(formula, escape)


def _must(node, escape: bool) -> Test:
    kind = type(node)
    if kind is fm.Box:
        action = node.action
        step = tm.Prefix(action, _must(node.body, escape))
        if action is TAU or not escape:
            return step
        return tm.Sum(step, tm.Prefix(TAU, tm.Success()))
    if kind is fm.And:
        # a type test, not ==: comparing two large equal tests is deep
        lt, rt = _must(node.left, escape), _must(node.right, escape)
        if type(lt) is tm.Success and type(rt) is tm.Success:
            return tm.Success()
        return tm.Sum(tm.Prefix(TAU, lt), tm.Prefix(TAU, rt))
    if kind is fm.Var:
        return tm.Var(node.name)
    if kind is fm.Min:
        body = _must(node.body, escape)
        return tm.Mu(node.var, body) if node.body.free else body
    if kind is fm.Acc:
        return _fold(tm.Sum, [tm.Prefix(visible(a), tm.Success()) for a in sorted(node.actions)], tm.Nil())
    if kind is fm.Tt:
        return tm.Success()
    if kind is fm.Ff:
        return tm.Nil()
    raise FormulaError(f"not in the must fragment: {node!r}")


def formula_to_may_test(formula: Formula) -> Test:
    """Compile a closed may formula to a test characterizing it under
    may-passing."""
    _require_fragment(formula, "may", "formula_to_may_test")
    return _may(formula)


def _may(node) -> Test:
    kind = type(node)
    if kind is fm.Dia:
        return tm.Prefix(node.action, _may(node.body))
    if kind is fm.Or:
        return tm.Sum(tm.Prefix(TAU, _may(node.left)), tm.Prefix(TAU, _may(node.right)))
    if kind is fm.Var:
        return tm.Var(node.name)
    if kind is fm.Min:
        return tm.Mu(node.var, _may(node.body))
    if kind is fm.Tt:
        return tm.Success()
    if kind is fm.Ff:
        return tm.Nil()
    raise FormulaError(f"not in the may fragment: {node!r}")


def _system(lts: Lts, root: str, moves) -> SimFormula:
    """The simultaneous system with the variable X_s for each test state
    s: success now gives tt, no moves gives ff, and otherwise the body is
    moves(taus, vis), where taus and vis list the (action, successor
    variable) pairs of the tau and of the visible moves in construction
    order, read off the system's deduped moves by index."""
    variables = [f"X_{state}" for state in lts.states]
    by_state = [[] for _ in variables]
    for i, action, j in lts._moves():
        by_state[i].append((action, j))
    bodies = []
    for state_moves in by_state:
        taus = []
        vis = []
        success = False
        for action, j in state_moves:
            if action is OMEGA:
                success = True
            else:
                (taus if action is TAU else vis).append((action, fm.Var(variables[j])))
        if success:
            bodies.append(fm.Tt())
        elif not taus and not vis:
            bodies.append(fm.Ff())
        else:
            bodies.append(moves(taus, vis))
    return SimFormula(variables, bodies, lts.state_index(root))


def _must_moves(taus, vis) -> Formula:
    parts: list[Formula] = [fm.Box(a, x) for a, x in taus + vis]
    if not taus:
        parts.append(fm.Acc(frozenset(a.name for a, _ in vis)))
    return _fold(fm.And, parts, fm.Tt())


def _may_moves(taus, vis) -> Formula:
    return _fold(fm.Or, [fm.Dia(a, x) for a, x in taus + vis], fm.Ff())


def test_lts_to_must_system(lts: Lts, root: str) -> SimFormula:
    """The simultaneous system of must equations for a test system, with
    the variable X_s for state s.

    Per state: success now gives tt; no moves gives ff; a stable state
    gives boxes over its visible moves plus acceptance of their actions;
    an unstable state gives boxes over all its tau and visible moves.
    """
    return _system(lts, root, _must_moves)


def test_lts_to_may_system(lts: Lts, root: str) -> SimFormula:
    """The simultaneous system of may equations for a test system, with
    the variable X_s for state s: success gives tt, deadlock gives ff,
    anything else the disjunction of diamonds over all moves."""
    return _system(lts, root, _may_moves)


def test_to_must_formula(test: Test) -> Formula:
    """Formula satisfied exactly by the processes that must pass the test."""
    return bekic_eliminate(test_lts_to_must_system(*tm.reachable_lts(test)))


def test_to_may_formula(test: Test) -> Formula:
    """Formula satisfied exactly by the processes that may pass the test."""
    return bekic_eliminate(test_lts_to_may_system(*tm.reachable_lts(test)))
