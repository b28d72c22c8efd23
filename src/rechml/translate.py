"""Translations between formulas and tests.

Formula to test: a must formula compiles to a test that a process must
pass exactly when it satisfies the formula, and dually for may.  The one
delicate case is conjunction on the must side: a conjunction that already
denotes the full state set must compile to immediate success rather than
to a tau-choice, because a divergent process must-fails any test that
cannot succeed at once.  Within the must fragment a subformula denotes the
full state set exactly when it compiles to success, so the compiler reads
the rule off the compiled arms in the same single pass.

Test to formula: the reachable states of the test induce one equation per
state; packaging them as a simultaneous least fixpoint and eliminating it
yields a single formula in the corresponding fragment.
"""

import hashlib
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
        raise FormulaError(f"{who}: subformula outside the {fragment} fragment: {bad}")


def formula_to_must_test(formula: Formula) -> Test:
    """Compile a closed must formula to a test characterizing it under
    must-passing."""
    _require_fragment(formula, "must", "formula_to_must_test")

    def conv(node) -> Test:
        match node:
            case fm.Tt():
                return tm.Success()
            case fm.Ff():
                return tm.Nil()
            case fm.Acc(actions):
                offers = [tm.Prefix(visible(a), tm.Success()) for a in sorted(actions)]
                return _fold(tm.Sum, offers, tm.Nil())
            case fm.Var(name):
                return tm.Var(name)
            case fm.Box(action, body):
                if action.kind == "tau":
                    return tm.Prefix(TAU, conv(body))
                return tm.Sum(tm.Prefix(action, conv(body)), tm.Prefix(TAU, tm.Success()))
            case fm.And(left, right):
                # isinstance, not ==: comparing two large equal tests is deep
                lt, rt = conv(left), conv(right)
                if isinstance(lt, tm.Success) and isinstance(rt, tm.Success):
                    return tm.Success()
                return tm.Sum(tm.Prefix(TAU, lt), tm.Prefix(TAU, rt))
            case fm.Min(var, body):
                if not body.free:
                    return conv(body)
                return tm.Mu(var, conv(body))
            case _:
                raise FormulaError(f"not in the must fragment: {node}")

    return conv(formula)


def formula_to_may_test(formula: Formula) -> Test:
    """Compile a closed may formula to a test characterizing it under
    may-passing."""
    _require_fragment(formula, "may", "formula_to_may_test")

    def conv(node) -> Test:
        match node:
            case fm.Tt():
                return tm.Success()
            case fm.Ff():
                return tm.Nil()
            case fm.Var(name):
                return tm.Var(name)
            case fm.Dia(action, body):
                return tm.Prefix(action, conv(body))
            case fm.Or(left, right):
                return tm.Sum(tm.Prefix(TAU, conv(left)), tm.Prefix(TAU, conv(right)))
            case fm.Min(var, body):
                return tm.Mu(var, conv(body))
            case _:
                raise FormulaError(f"not in the may fragment: {node}")

    return conv(formula)


def _state_variables(lts: Lts, terms=None) -> dict[str, str]:
    """One formula variable per test state, named from a digest of the
    printed canonical term (or the state name for external systems) plus
    the state name itself as a readable suffix.  The term is printed from
    explore's interned table; no Test is built."""
    out = {}
    for state in lts.states:
        basis = terms.text(state) if terms else state
        digest = hashlib.sha1(basis.encode()).hexdigest()[:6]
        out[state] = f"X_{digest}_{state}"
    return out


def _system(lts: Lts, root: str, terms, moves) -> SimFormula:
    """The simultaneous system with one variable per test state: success
    now gives tt, no moves gives ff, and otherwise the body is
    moves(taus, vis), where taus and vis list the (action, successor
    variable) pairs of the tau and of the visible moves."""
    var_of = _state_variables(lts, terms)
    bodies = []
    for state in lts.states:
        taus = []
        vis = []
        success = False
        for _, action, dst in lts.outgoing(state):
            if action == OMEGA:
                success = True
            else:
                (taus if action == TAU else vis).append((action, fm.Var(var_of[dst])))
        if success:
            bodies.append(fm.Tt())
        elif not taus and not vis:
            bodies.append(fm.Ff())
        else:
            bodies.append(moves(taus, vis))
    return SimFormula(
        tuple(var_of[s] for s in lts.states),
        tuple(bodies),
        lts.state_index(root),
    )


def _must_moves(taus, vis) -> Formula:
    parts: list[Formula] = [fm.Box(a, x) for a, x in taus + vis]
    if not taus:
        parts.append(fm.Acc(frozenset(a.name for a, _ in vis)))
    return _fold(fm.And, parts, fm.Tt())


def _may_moves(taus, vis) -> Formula:
    return _fold(fm.Or, [fm.Dia(a, x) for a, x in taus + vis], fm.Ff())


def test_lts_to_must_system(lts: Lts, root: str, terms=None) -> SimFormula:
    """The simultaneous system of must equations for a test system.

    Per state: success now gives tt; no moves gives ff; a stable state
    gives boxes over its visible moves plus acceptance of their actions;
    an unstable state gives boxes over all its tau and visible moves.

    terms is the mapping that explore returned with lts; each variable is
    named from its state's canonical term.  Pass None for a system read
    from a file, whose variables are named from the state names.
    """
    return _system(lts, root, terms, _must_moves)


def test_lts_to_may_system(lts: Lts, root: str, terms=None) -> SimFormula:
    """The simultaneous system of may equations for a test system: success
    gives tt, deadlock gives ff, anything else the disjunction of diamonds
    over all moves.  terms is as for test_lts_to_must_system: the mapping
    that explore returned with lts, or None."""
    return _system(lts, root, terms, _may_moves)


def test_to_must_formula(test: Test) -> Formula:
    """Formula satisfied exactly by the processes that must pass the test."""
    lts, root, terms = tm.explore(test)
    return bekic_eliminate(test_lts_to_must_system(lts, root, terms))


def test_to_may_formula(test: Test) -> Formula:
    """Formula satisfied exactly by the processes that may pass the test."""
    lts, root, terms = tm.explore(test)
    return bekic_eliminate(test_lts_to_may_system(lts, root, terms))
