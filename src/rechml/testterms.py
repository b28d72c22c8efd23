"""Syntax and operational semantics of test processes.

Grammar: nil, success (omega then stop), action prefix over tau and visible
actions, variables, binary sum and recursion mu X.t.  Success is the only
way omega enters a test.  The step relation follows the usual rules: a
prefix fires its action, a sum commits to one side, and recursion unfolds
in a single tau step.
"""

from dataclasses import dataclass

from .lts import OMEGA, TAU, Action, Lts


class TestError(Exception):
    """Raised for open test terms and malformed constructions."""


class CapExceeded(TestError):
    """Exploration produced more reachable terms than the configured cap;
    indicates a runaway construction rather than bad input."""


class Test:
    __slots__ = ()

    def __str__(self):
        from .textio import format_test

        return format_test(self)


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
class Var(Test):
    name: str


@dataclass(frozen=True)
class Sum(Test):
    left: Test
    right: Test


@dataclass(frozen=True)
class Mu(Test):
    var: str
    body: Test


def free_vars(term) -> frozenset[str]:
    match term:
        case Var(name):
            return frozenset((name,))
        case Prefix(_, body):
            return free_vars(body)
        case Sum(left, right):
            return free_vars(left) | free_vars(right)
        case Mu(var, body):
            return free_vars(body) - {var}
        case _:
            return frozenset()


def substitute(term, var: str, replacement) -> Test:
    """Capture-avoiding substitution in a test term."""
    from .formulas import fresh_name

    repl_free = free_vars(replacement)

    def sub(node):
        fv = free_vars(node)
        if var not in fv:
            return node
        match node:
            case Var(_):
                return replacement
            case Prefix(action, body):
                return Prefix(action, sub(body))
            case Sum(left, right):
                return Sum(sub(left), sub(right))
            case Mu(x, body):
                if x in repl_free:
                    x2 = fresh_name(x, repl_free | free_vars(body) | {var, x})
                    body = substitute(body, x, Var(x2))
                    return Mu(x2, sub(body))
                return Mu(x, sub(body))
            case _:
                return node

    return sub(term)


def canonical(term) -> Test:
    """Bound variables renamed B0, B1, ... in traversal order; structural
    equality of canonical forms is alpha-equivalence."""
    counter = [0]

    def walk(node, env):
        match node:
            case Var(name):
                return Var(env.get(name, name))
            case Prefix(action, body):
                return Prefix(action, walk(body, env))
            case Sum(left, right):
                return Sum(walk(left, env), walk(right, env))
            case Mu(x, body):
                name = f"B{counter[0]}"
                counter[0] += 1
                env2 = dict(env)
                env2[x] = name
                return Mu(name, walk(body, env2))
            case _:
                return node

    return walk(term, {})


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
    discovery order.
    """
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
        at += 1
        for action, target in test_step(current):
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
            transitions.append((names[current], action, name))
    lts = Lts(states=[names[t] for t in queue], transitions=transitions, name="test")
    return lts, "t0", terms


def reachable_lts(term, max_states: int = 100_000) -> tuple[Lts, str]:
    """The finite LTS generated by a closed test term, and its root state."""
    lts, root, _ = explore(term, max_states)
    return lts, root

