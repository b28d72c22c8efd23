"""Syntax and operational semantics of test processes.

Grammar: nil, success (omega then stop), action prefix over tau and visible
actions, variables, binary sum and recursion mu X.t.  Success is the only
way omega enters a test.  The step relation follows the usual rules: a
prefix fires its action, a sum commits to one side, and recursion unfolds
in a single tau step.

Free variables, substitution and canonical renaming are the shared binder
operations of rechml.formulas (bound names B0, B1, ...), re-exported here.
Exploration identifies states by a flat alpha-invariant key instead, so
that no deep term is ever hashed or compared; canonical only names the
states it finds.
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


_SUM, _MU, _NIL, _SUCCESS = "+", "mu", "0", "w"


def _alpha_key(term) -> tuple:
    """Flat key of a closed test term: its preorder tokens, which are the
    action of each prefix, a marker for every other constructor and the de
    Bruijn index of each bound variable.  Every token fixes how many
    subterms follow it, so two terms have equal keys exactly when they are
    alpha-equivalent.  The walk keeps its own stack, and a key hashes and
    compares without recursion."""
    out = []
    stack = [(term, {}, 0)]  # node, binder depth of each name in scope, depth
    while stack:
        node, env, depth = stack.pop()
        match node:
            case Prefix(action, body):
                out.append(action)
                stack.append((body, env, depth))
            case Sum(left, right):
                out.append(_SUM)
                stack.append((right, env, depth))
                stack.append((left, env, depth))
            case Mu(var, body):
                out.append(_MU)
                stack.append((body, {**env, var: depth}, depth + 1))
            case Var(name):
                out.append(depth - 1 - env[name])
            case Nil():
                out.append(_NIL)
            case Success():
                out.append(_SUCCESS)
    return tuple(out)


_SAMPLE_CHARS = 60  # printed length of a frontier term in the cap message


def _clip(term) -> str:
    text = str(term)
    return text if len(text) <= _SAMPLE_CHARS else text[:_SAMPLE_CHARS] + "..."


def explore(term, max_states: int = 100_000):
    """Breadth-first exploration of the reachable test terms up to
    alpha-equivalence.

    Returns (lts, root_name, terms) where terms maps each state name to the
    canonical term it stands for.  States are named t0, t1, ... in
    discovery order.  max_states must be at least 1.  The alpha key of a
    successor decides whether it is a new state; only a new state is
    renamed by canonical.
    """
    if max_states < 1:
        raise ValueError(f"max_states must be at least 1, got {max_states}")
    fv = free_vars(term)
    if fv:
        raise TestError(f"open test term; free: {', '.join(sorted(fv))}")
    root = canonical(term)
    names: dict[tuple, str] = {_alpha_key(root): "t0"}
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
            key = _alpha_key(target)
            name = names.get(key)
            if name is None:
                target = canonical(target)
                if len(names) >= max_states:
                    sample = ", ".join(_clip(t) for t in [target] + queue[at : at + 2])
                    raise CapExceeded(
                        f"more than {max_states} reachable test terms; "
                        f"frontier starts: {sample}"
                    )
                name = f"t{len(names)}"
                names[key] = name
                terms[name] = target
                queue.append(target)
            transitions.append((source, action, name))
    lts = Lts(states=list(terms), transitions=transitions, name="test")
    return lts, "t0", terms


def reachable_lts(term, max_states: int = 100_000) -> tuple[Lts, str]:
    """The finite LTS generated by a closed test term, and its root state."""
    lts, root, _ = explore(term, max_states)
    return lts, root

