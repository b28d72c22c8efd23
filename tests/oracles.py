"""Independent reference implementations used to cross-check the package.

Everything here works on plain sets of state names and naive Kleene or
Tarski characterizations, deliberately avoiding the bitmask machinery,
the warm-restart evaluator and the interned test terms of the package
proper.  The experiment solver here counts remaining moves backwards,
where the package searches depth-first.  Slow is fine; these run on
small inputs only.
"""

from collections import deque
from functools import cache
from itertools import chain, combinations

from rechml import formulas as fm
from rechml.formulas import Binder, Variable
from rechml import testterms as tm
from rechml.lts import OMEGA, TAU
from rechml.textio import format_test


def tau_closure(lts, state):
    seen = {state}
    frontier = [state]
    while frontier:
        s = frontier.pop()
        for _, act, dst in lts.outgoing(s):
            if act == TAU and dst not in seen:
                seen.add(dst)
                frontier.append(dst)
    return seen


def weak_derivatives(lts, state, action):
    """closure, one strong step, closure again."""
    if action == TAU:
        return tau_closure(lts, state)
    mid = set()
    for s in tau_closure(lts, state):
        for _, act, dst in lts.outgoing(s):
            if act == action:
                mid.add(dst)
    out = set()
    for m in mid:
        out |= tau_closure(lts, m)
    return out


def diverges(lts, state):
    """Is some tau-cycle reachable from state along tau steps?"""
    def tau_succ(s):
        return [dst for _, act, dst in lts.outgoing(s) if act == TAU]

    for start in tau_closure(lts, state):
        stack = [start]
        seen = set()
        while stack:
            s = stack.pop()
            for nxt in tau_succ(s):
                if nxt == start:
                    return True
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
    return False


def converges(lts, state):
    return not diverges(lts, state)


def sat_states(lts, formula, env=None):
    """Naive recursive evaluator over sets of state names.  Fixpoints by
    plain Kleene iteration, recomputed from scratch at every level.  Weak
    derivatives and convergence are memoised per state for the call."""
    env = dict(env or {})
    states = set(lts.states)
    weak = cache(lambda s, a: weak_derivatives(lts, s, a))
    convergent = cache(lambda s: converges(lts, s))

    def ev(node, rho):
        match node:
            case fm.Tt():
                return set(states)
            case fm.Ff():
                return set()
            case fm.Var(name):
                return set(rho[name])
            case fm.Or(left, right):
                return ev(left, rho) | ev(right, rho)
            case fm.And(left, right):
                return ev(left, rho) & ev(right, rho)
            case fm.Dia(action, body):
                target = ev(body, rho)
                return {s for s in states if weak(s, action) & target}
            case fm.Box(action, body):
                target = ev(body, rho)
                return {s for s in states if convergent(s)
                        and weak(s, action) <= target}
            case fm.Acc(actions):
                return {s for s in states if convergent(s) and all(
                    any(weak(r, lts_visible(a)) for a in actions)
                    for r in tau_closure(lts, s))}
            case fm.Min(var, body):
                current = set()
                while True:
                    nxt = ev(body, {**rho, var: current})
                    if nxt == current:
                        return current
                    current = nxt
            case fm.Max(var, body):
                current = set(states)
                while True:
                    nxt = ev(body, {**rho, var: current})
                    if nxt == current:
                        return current
                    current = nxt
        raise AssertionError(node)

    return ev(formula, env)


def lts_visible(name):
    from rechml.lts import visible
    return visible(name)


def tarski_least(lts, var, body, env=None):
    """Least fixpoint as the intersection of all prefixed points, by
    enumerating every subset of states.  Only sensible for small systems."""
    states = list(lts.states)
    assert len(states) <= 6
    best = set(states)
    for k in range(len(states) + 1):
        for chosen in combinations(states, k):
            p = set(chosen)
            if sat_states(lts, body, {**(env or {}), var: p}) <= p:
                best &= p
                if not best:
                    return best
    return best


def tarski_greatest(lts, var, body, env=None):
    """Greatest fixpoint as the union of all postfixed points."""
    states = list(lts.states)
    assert len(states) <= 6
    best = set()
    for k in range(len(states) + 1):
        for chosen in combinations(states, k):
            p = set(chosen)
            if p <= sat_states(lts, body, {**(env or {}), var: p}):
                best |= p
    return best


def compose(proc, tlts, p, troot):
    """Rule-by-rule experiment product: configurations, moves and the
    success predicate, on name pairs."""
    shared = sorted(set(proc.alphabet) & set(tlts.alphabet))

    def moves(cfg):
        s, t = cfg
        out = []
        for _, act, dst in proc.outgoing(s):
            if act == TAU:
                out.append((dst, t))
        for _, act, dst in tlts.outgoing(t):
            if act == TAU:
                out.append((s, dst))
        for a in shared:
            va = lts_visible(a)
            for _, act, pd in proc.outgoing(s):
                if act != va:
                    continue
                for _, tact, td in tlts.outgoing(t):
                    if tact == va:
                        out.append((pd, td))
        return out

    def success(cfg):
        return any(act == OMEGA for _, act, _ in tlts.outgoing(cfg[1]))

    configs = {(p, troot)}
    frontier = [(p, troot)]
    while frontier:
        cfg = frontier.pop()
        for nxt in moves(cfg):
            if nxt not in configs:
                configs.add(nxt)
                frontier.append(nxt)
    return configs, moves, success


def may_oracle(proc, tlts, p, troot):
    configs, moves, success = compose(proc, tlts, p, troot)
    return any(success(c) for c in configs)


def must_oracle(proc, tlts, p, troot):
    """Kleene iteration of: success, or some move and every move stays in
    the set.  The root's membership is the must verdict."""
    configs, moves, success = compose(proc, tlts, p, troot)
    good = set()
    while True:
        nxt = {c for c in configs
               if success(c) or (moves(c) and all(m in good for m in moves(c)))}
        if nxt == good:
            break
        good = nxt
    return (p, troot) in good


def graph_witness(graph):
    """Reference walk over a built experiment graph: a successful
    computation as a list of configurations, or None.  Breadth-first from
    the root in edge order, stopping at the first success configuration."""
    parent = {0: None}
    queue = deque((0,))
    goal = None
    while queue:
        c = queue.popleft()
        if graph.success[c]:
            goal = c
            break
        for d in graph.edges[c]:
            if d not in parent:
                parent[d] = c
                queue.append(d)
    if goal is None:
        return None
    path = []
    at = goal
    while at is not None:
        path.append(graph.configs[at])
        at = parent[at]
    path.reverse()
    return path


def passing(graph):
    """Reference solver over a built experiment graph: per configuration,
    whether it may pass and whether it must pass.  Each is the least set
    holding the success configurations and closed backwards: a
    configuration joins once some move (may) or, with at least one move,
    every move (must) leads into the set, counted down by a worklist of
    remaining moves per configuration."""
    edges, success = graph.edges, graph.success
    preds = [[] for _ in edges]
    for src, targets in enumerate(edges):
        for dst in targets:
            preds[dst].append(src)

    def close(remaining):
        inside = list(success)
        queue = [c for c, ok in enumerate(success) if ok]
        for c in queue:  # the queue grows while walked
            for p in preds[c]:
                remaining[p] -= 1
                if not inside[p] and remaining[p] == 0:
                    inside[p] = True
                    queue.append(p)
        return inside

    return close([1] * len(edges)), close([len(targets) for targets in edges])


def graph_counterexample(graph):
    """Reference walk over a built experiment graph: (path, loop_index)
    when the root must-fails, else None.  Each step takes the first edge
    into a configuration outside the must set of the reference solver;
    loop_index is where the last configuration loops back to, or None at
    a deadlock."""
    inside = passing(graph)[1]
    if inside[0]:
        return None
    path_ids = [0]
    position = {0: 0}
    at = 0
    while True:
        nxt = None
        for d in graph.edges[at]:
            if not inside[d]:
                nxt = d
                break
        if nxt is None:
            return [graph.configs[i] for i in path_ids], None
        if nxt in position:
            path_ids.append(nxt)
            return [graph.configs[i] for i in path_ids], position[nxt]
        position[nxt] = len(path_ids)
        path_ids.append(nxt)
        at = nxt


def canonical(term):
    """Rename bound variables to P0, P1, ... in traversal order, where P is
    the family's bound_prefix; two terms are alpha-equivalent exactly when
    their canonical forms are structurally equal.  One scope dict serves
    the whole walk: each binder saves the entry it shadows and restores it
    on the way out."""
    prefix = term.bound_prefix
    counter = [0]
    env: dict[str, str] = {}

    def walk(node):
        match node:
            case Variable(name=name):
                return type(node)(env.get(name, name))
            case Binder(var=x, body=b):
                name = f"{prefix}{counter[0]}"
                counter[0] += 1
                shadowed = env.get(x)
                env[x] = name
                body = walk(b)
                if shadowed is None:
                    del env[x]
                else:
                    env[x] = shadowed
                return type(node)(name, body)
            case _:
                return node.map_children(walk)

    return walk(term)


def _steps(term):
    """Moves of a test term in the order left summand before right,
    duplicates kept; one walk with its own stack over the summands."""
    out = []
    stack = [term]
    while stack:
        match stack.pop():
            case tm.Sum(left, right):
                stack.append(right)
                stack.append(left)
            case tm.Prefix(action, body):
                out.append((action, body))
            case tm.Success():
                out.append((OMEGA, tm.Nil()))
            case tm.Mu(var, body) as node:
                out.append((TAU, tm.substitute(body, var, node)))
            case tm.Nil() | tm.Var(_):
                pass
            case other:
                raise tm.TestError(f"cannot step {other!r}")
    return out


def test_step(term):
    """Outgoing moves of a closed test term, rule by rule on named terms:
    a prefix fires its action, success offers omega, a binder unfolds by a
    tau step and a sum's summands move left first.  Duplicates are removed
    and told apart by printed target, since printing round-trips; hashing
    a deep target recurses through C, which Python 3.12 refuses at about
    500 levels."""
    tm._require_closed(term)
    moves = {}
    for action, target in _steps(term):
        moves.setdefault((action, format_test(target)), (action, target))
    return list(moves.values())


def explore_oracle(term):
    """States, transitions and terms of the test LTS by breadth-first search
    over the test_step targets, each state identified by its canonical
    term, which is hashed and compared structurally."""
    root = canonical(term)
    found = {root: 0}
    order = [root]
    transitions = []
    for i, current in enumerate(order):  # order grows while it is read
        for action, target in test_step(current):
            target = canonical(target)
            if target not in found:
                found[target] = len(order)
                order.append(target)
            transitions.append((f"t{i}", action, f"t{found[target]}"))
    states = [f"t{i}" for i in range(len(order))]
    return states, list(dict.fromkeys(transitions)), dict(zip(states, order))


def strip_box_escapes(test):
    """A must-compiled test with every visible box's escape removed: each
    a.t + tau.w.0 becomes a.t.  It rewrites the compiler's output rather
    than compiling, so it checks the compiler's wrong variant from the
    outside.  The must compiler emits that shape for a visible box and
    nowhere else: Acc arms are all visible, conjunction arms all tau."""
    match test:
        case tm.Sum(tm.Prefix(action, body), tm.Prefix(escape, tm.Success())) if (
            action.kind == "visible" and escape == TAU
        ):
            return tm.Prefix(action, strip_box_escapes(body))
        case tm.Prefix(action, body):
            return tm.Prefix(action, strip_box_escapes(body))
        case tm.Sum(left, right):
            return tm.Sum(strip_box_escapes(left), strip_box_escapes(right))
        case tm.Mu(var, body):
            return tm.Mu(var, strip_box_escapes(body))
        case _:
            return test


def powerset(iterable):
    items = list(iterable)
    return chain.from_iterable(combinations(items, k) for k in range(len(items) + 1))
