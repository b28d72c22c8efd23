"""Syntax and operational semantics of test processes.

Grammar: nil, success (omega then stop), action prefix over tau and visible
actions, variables, binary sum and recursion mu X.t.  Success is the only
way omega enters a test.  The step relation follows the usual rules: a
prefix fires its action, a sum commits to one side, and recursion unfolds
in a single tau step.

Free variables, substitution and canonical renaming are the shared binder
operations of rechml.formulas (bound names B0, B1, ...), re-exported here.
"""

from dataclasses import dataclass

from .formulas import Binder, Term, Variable, canonical, free_vars, substitute
from .lts import OMEGA, TAU, Action, Lts


class TestError(Exception):
    """Raised for open test terms and malformed constructions."""


class CapExceeded(TestError):
    """Exploration produced more reachable terms than the configured cap;
    indicates a runaway construction rather than bad input."""


class Test(Term):
    __slots__ = ()
    bound_prefix = "B"

    def __str__(self):
        from .textio import format_test

        return format_test(self)

    def children(self):
        match self:
            case Sum(l, r):
                return (l, r)
            case Prefix(_, b) | Mu(_, b):
                return (b,)
            case _:
                return ()

    def map_children(self, f):
        match self:
            case Sum(l, r):
                return Sum(f(l), f(r))
            case Prefix(a, b):
                return Prefix(a, f(b))
            case Mu(x, b):
                return Mu(x, f(b))
            case _:
                return self


@dataclass(frozen=True)
class Nil(Test):
    pass


@dataclass(frozen=True)
class Success(Test):
    """The test omega.0: report success, then stop."""


@dataclass(frozen=True)
class Prefix(Test):
    action: Action
    body: Test

    def __post_init__(self):
        if self.action.kind == "omega":
            raise TestError("omega prefixes only nil; use Success")


@dataclass(frozen=True)
class Var(Test, Variable):
    name: str


@dataclass(frozen=True)
class Sum(Test):
    left: Test
    right: Test


@dataclass(frozen=True)
class Mu(Test, Binder):
    var: str
    body: Test
    var_class = Var


def _steps(term):
    match term:
        case Nil() | Var(_):
            return []
        case Success():
            return [(OMEGA, Nil())]
        case Prefix(action, body):
            return [(action, body)]
        case Sum(left, right):
            return _steps(left) + _steps(right)
        case Mu(var, body):
            return [(TAU, substitute(body, var, term))]
        case _:
            raise TestError(f"cannot step {term!r}")


def test_step(term) -> list[tuple[Action, Test]]:
    """Outgoing moves of a closed test term, duplicates removed, in the
    deterministic order left summand before right."""
    fv = free_vars(term)
    if fv:
        raise TestError(f"open test term; free: {', '.join(sorted(fv))}")
    seen = set()
    out = []
    for move in _steps(term):
        if move not in seen:
            seen.add(move)
            out.append(move)
    return out


def explore(term, max_states: int = 100_000):
    """Breadth-first exploration of the reachable test terms up to
    alpha-equivalence.

    Returns (lts, root_name, terms) where terms maps each state name to the
    canonical term it stands for.  States are named t0, t1, ... in
    discovery order.  max_states must be at least 1.
    """
    if max_states < 1:
        raise ValueError(f"max_states must be at least 1, got {max_states}")
    fv = free_vars(term)
    if fv:
        raise TestError(f"open test term; free: {', '.join(sorted(fv))}")
    root = canonical(term)
    names: dict[Test, str] = {root: "t0"}
    terms: dict[str, Test] = {"t0": root}
    queue = [root]
    transitions = []
    at = 0
    while at < len(queue):
        current = queue[at]
        source = f"t{at}"
        at += 1
        # every term reachable from a closed root is closed, and Lts drops
        # repeated triples, so the checks of test_step are not needed here
        for action, target in _steps(current):
            target = canonical(target)
            name = names.get(target)
            if name is None:
                if len(names) >= max_states:
                    sample = ", ".join(str(t) for t in [target] + queue[at : at + 2])
                    raise CapExceeded(
                        f"more than {max_states} reachable test terms; "
                        f"frontier starts: {sample}"
                    )
                name = f"t{len(names)}"
                names[target] = name
                terms[name] = target
                queue.append(target)
            transitions.append((source, action, name))
    lts = Lts(states=list(terms), transitions=transitions, name="test")
    return lts, "t0", terms


def reachable_lts(term, max_states: int = 100_000) -> tuple[Lts, str]:
    """The finite LTS generated by a closed test term, and its root state."""
    lts, root, _ = explore(term, max_states)
    return lts, root

