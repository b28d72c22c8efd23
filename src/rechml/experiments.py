"""Experiments: a process running in parallel with a test.

A configuration pairs a process state with a test state.  Every edge of the
experiment graph is silent: the process moves on its own taus, the test on
its own taus, and the two synchronize on shared visible actions.  Success
is a predicate on configurations (the test component offers omega); omega
transitions are never taken.

A process may pass the test when some success configuration is reachable;
it must pass when every maximal computation visits a success configuration.
The must set is the least fixpoint of "successful now, or at least one move
and all moves lead into the set", and the may set that of "successful now,
or some move leads into the set".

The product runs on ints: configuration (ip, it) is the key ip * n + it
over the n test states, and each side's strong moves come from the
successor masks of Lts.strong_row, read only for the configurations that
are expanded.  Names are attached at the end.
There are two routes over it:

- One root (parallel_compose, which the CLI uses): an Experiment builds
  moves only as far as its answers need.  may_satisfy and may_witness
  stop at the first success configuration in breadth-first order;
  must_satisfy and must_counterexample at the first non-success deadlock
  or cycle found depth first.
- All roots (compose_all): the whole reachable graph is built, and one
  backward worklist over it solves may and must for every configuration
  at once (may_states, must_states).  The harness uses this route, and
  the tests compare the two.
"""

from collections import deque
from dataclasses import dataclass
from functools import cached_property

from .lts import TAU, Lts, LtsError, visible
from .testterms import Mu, Test, TestError, reachable_lts


@dataclass
class ExperimentGraph:
    """Reachable configurations of a process paired with a test.  The
    root configurations come first: configuration k is the root of
    process state index roots[k] (one root for Experiment.graph, every
    state in order for compose_all); edges[i] lists successor indices in
    deterministic order; success[i] marks configurations whose test
    component offers omega."""

    proc: Lts
    test: Lts
    configs: list[tuple[str, str]]
    edges: list[list[int]]
    success: list[bool]
    roots: list[int]

    def __len__(self):
        return len(self.configs)

    @cached_property
    def passing(self) -> tuple[list[bool], list[bool]]:
        """Per configuration, whether it may pass and whether it must
        pass; solved once, on first read."""
        return _passing(self)


def _product(proc: Lts, test: Lts):
    """The moves of the product of proc and test on int keys: returns
    (n, moves) where configuration (ip, it) is the key ip * n + it and
    moves(key) lists its target keys as process taus, test taus, then
    shared actions by name, each once.  Witness and counterexample paths
    follow this order.  Each side's successor index lists are built per
    state, when a configuration first needs them."""
    if proc.has_omega:
        raise LtsError("process side of an experiment cannot use omega")
    n = len(test.states)
    acts = [TAU] + [visible(a) for a in sorted(set(proc.alphabet) & set(test.alphabet))]
    proc_rows, test_rows = [proc.strong_row(a) for a in acts], [test.strong_row(a) for a in acts]
    proc_steps = [None] * len(proc.states)
    test_steps = [None] * n

    def moves(key):
        ip, it = divmod(key, n)
        ps, ts = proc_steps[ip], test_steps[it]
        if ps is None:
            ps = proc_steps[ip] = [list(proc.iter_mask(row[ip])) for row in proc_rows]
        if ts is None:
            ts = test_steps[it] = [list(test.iter_mask(row[it])) for row in test_rows]
        targets = [jp * n + it for jp in ps[0]]
        targets += [ip * n + jt for jt in ts[0]]
        for k in range(1, len(acts)):
            if ps[k] and ts[k]:
                targets += [jp * n + jt for jp in ps[k] for jt in ts[k]]
        return list(dict.fromkeys(targets))

    return n, moves


def _compose(proc: Lts, test: Lts, roots, t: str) -> ExperimentGraph:
    """Breadth-first product seeded with (i, t) for each process state
    index i in roots, in that order; edges follow the order of _product."""
    n, moves = _product(proc, test)
    start = test.state_index(t)
    roots = list(roots)
    keys = [ip * n + start for ip in roots]
    index = {key: k for k, key in enumerate(keys)}
    edges: list[list[int]] = []
    for key in keys:  # the key list is the queue: it grows while walked
        out = []
        for target in moves(key):
            got = index.get(target)
            if got is None:
                got = index[target] = len(keys)
                keys.append(target)
            out.append(got)
        edges.append(out)

    success = [bool(test.omega_mask >> (key % n) & 1) for key in keys]
    named = [(proc.states[key // n], test.states[key % n]) for key in keys]
    return ExperimentGraph(proc, test, named, edges, success, roots)


def compose_all(proc: Lts, test: Lts, t: str) -> ExperimentGraph:
    """One experiment graph for every process state against test state t:
    configuration i is (proc.states[i], t).  Whether a configuration
    passes does not depend on the root it was reached from, so one solve
    answers every state."""
    return _compose(proc, test, range(len(proc.states)), t)


def _passing(graph: ExperimentGraph) -> tuple[list[bool], list[bool]]:
    """The configurations that may pass and those that must pass.  Each is
    the least set holding the success configurations and closed
    backwards: a configuration joins once some move (may) or, with at
    least one move, every move (must) leads into the set.  One list of
    predecessors serves both worklists of remaining-move counters."""
    n = len(graph.configs)
    preds: list[list[int]] = [[] for _ in range(n)]
    for src, targets in enumerate(graph.edges):
        for dst in targets:
            preds[dst].append(src)

    def close(remaining):
        inside = list(graph.success)
        queue = deque(c for c in range(n) if inside[c])
        while queue:
            c = queue.popleft()
            for p in preds[c]:
                remaining[p] -= 1
                if not inside[p] and remaining[p] == 0:
                    inside[p] = True
                    queue.append(p)
        return inside

    return close([1] * n), close([len(targets) for targets in graph.edges])


def _root_mask(graph: ExperimentGraph, inside: list[bool]) -> int:
    mask = 0
    for k, ip in enumerate(graph.roots):
        if inside[k]:
            mask |= 1 << ip
    return mask


class _Moves(dict):
    """The moves of each configuration key, built on first lookup."""

    def __init__(self, build):
        super().__init__()
        self.build = build

    def __missing__(self, key):
        got = self[key] = self.build(key)
        return got


class Experiment:
    """Process state p against test state t, solved locally (Liu and
    Smolka 1998): a configuration's moves are built the first time an
    answer needs them and kept, so are the must verdicts settled so far,
    and may_satisfy, must_satisfy, may_witness and must_counterexample
    share both memos.  Keys and move order are those of _product, so the
    answers equal those read from the whole graph.

    The whole reachable graph (configs, edges, success, roots, passing and
    len, as in ExperimentGraph) is built only when one of them is read, by
    a breadth-first search of its own that leaves the answers' memo alone.
    """

    def __init__(self, proc: Lts, test: Lts, p: str, t: str):
        self.proc, self.test = proc, test
        ip = proc.state_index(p)
        self._n, build = _product(proc, test)
        self._root = ip * self._n + test.state_index(t)
        self._moves = _Moves(build)
        self._failing: dict[int, bool] = {}
        self._search: tuple | None = None

    @property
    def built(self) -> int:
        """Configurations whose moves the answers have built so far."""
        return len(self._moves)

    @cached_property
    def graph(self) -> ExperimentGraph:
        """The whole graph reachable from the root, as compose_all builds
        it for one root."""
        ip, it = divmod(self._root, self._n)
        return _compose(self.proc, self.test, (ip,), self.test.states[it])

    def __len__(self):
        return len(self.graph)

    configs = property(lambda self: self.graph.configs)
    edges = property(lambda self: self.graph.edges)
    success = property(lambda self: self.graph.success)
    roots = property(lambda self: self.graph.roots)
    passing = property(lambda self: self.graph.passing)

    def _names(self, keys):
        n, proc, test = self._n, self.proc.states, self.test.states
        return [(proc[key // n], test[key % n]) for key in keys]

    def _first_success(self):
        """Breadth-first from the root in move order, stopping at the first
        success configuration: (that configuration or None, the parent of
        every configuration found)."""
        if self._search is None:
            moves, omega, n = self._moves, self.test.omega_mask, self._n
            parent = {self._root: None}
            order = [self._root]
            goal = None
            for key in order:  # the queue: it grows while walked
                if omega >> key % n & 1:
                    goal = key
                    break
                for d in moves[key]:
                    if d not in parent:
                        parent[d] = key
                        order.append(d)
            self._search = goal, parent
        return self._search

    def _fails(self, key: int) -> bool:
        """Whether some maximal computation from the configuration never
        reaches success.  A depth-first search over the non-success
        configurations stops at the first deadlock or the first move back
        into its stack or into a configuration known to fail; then every
        configuration on the stack fails.  A configuration whose search
        ends without that passes: it moves, and every move passes."""
        status, moves, omega, n = self._failing, self._moves, self.test.omega_mask, self._n
        known = status.get(key)
        if known is not None:
            return known
        if omega >> key % n & 1:
            return False
        stack: list[int] = []
        todo = []
        on_stack = set()
        c = key
        while True:  # c is a non-success configuration not settled yet
            stack.append(c)
            if not moves[c]:
                break
            on_stack.add(c)
            todo.append(iter(moves[c]))
            c = None
            while c is None:
                for d in todo[-1]:
                    if not (omega >> d % n & 1 or status.get(d) is False):
                        c = d
                        break
                else:  # every move passes
                    done = stack.pop()
                    todo.pop()
                    on_stack.remove(done)
                    status[done] = False
                    if not stack:
                        return False
            if c in on_stack or status.get(c):
                break
        for c in stack:
            status[c] = True
        return True


def parallel_compose(proc: Lts, test: Lts, p: str, t: str) -> Experiment:
    """The experiment of process state p against test state t.

    The process must not mention omega; the test may.  Nothing is built
    until an answer, or the whole graph, is asked for.
    """
    return Experiment(proc, test, p, t)


def may_satisfy(experiment: Experiment) -> bool:
    """Some computation from the root reaches a success configuration."""
    return experiment._first_success()[0] is not None


def must_satisfy(experiment: Experiment) -> bool:
    """Every maximal computation from the root visits a success
    configuration."""
    return not experiment._fails(experiment._root)


def may_witness(experiment: Experiment):
    """A successful computation as a list of configurations, or None: the
    path to the first success configuration in breadth-first move order."""
    goal, parent = experiment._first_success()
    if goal is None:
        return None
    path = []
    while goal is not None:
        path.append(goal)
        goal = parent[goal]
    return experiment._names(reversed(path))


def must_counterexample(experiment: Experiment):
    """An unsuccessful maximal computation when the root must-fails.

    Returns (path, loop_index) where path is a list of configurations and
    loop_index is the position the final configuration loops back to, or
    None when the path ends in a deadlocked configuration.  Each step
    takes the first move, in move order, into a failing configuration.
    Returns None when the root must-passes.
    """
    fails, moves, root = experiment._fails, experiment._moves, experiment._root
    if not fails(root):
        return None
    path = [root]
    position = {root: 0}
    while True:
        nxt = next((d for d in moves[path[-1]] if fails(d)), None)
        if nxt is None:
            return experiment._names(path), None
        path.append(nxt)
        if nxt in position:
            return experiment._names(path), position[nxt]
        position[nxt] = len(path) - 1


def may_states(graph: ExperimentGraph) -> int:
    """Mask of the root process states that may pass, read from the whole
    graph (of compose_all, or of one Experiment)."""
    return _root_mask(graph, graph.passing[0])


def must_states(graph: ExperimentGraph) -> int:
    """Mask of the root process states that must pass."""
    return _root_mask(graph, graph.passing[1])


@dataclass
class UnfoldVerdicts:
    """Must verdicts for a recursive test and its one-step unfolding, as
    masks over the process states, with the converging states."""

    recursive: int
    unfolded: int
    converging: int

    @property
    def violations(self) -> int:
        """States breaking either direction of the unfolding law: must for
        mu X.t implies must for the unfolding unconditionally, and the
        converse holds at converging states."""
        forward = self.recursive & ~self.unfolded
        converse = self.converging & self.unfolded & ~self.recursive
        return forward | converse


def must_unfold_law(proc: Lts, test: Test) -> UnfoldVerdicts:
    """Check both directions of the recursion unfolding law for must at
    every process state."""
    from .testterms import substitute

    if not isinstance(test, Mu):
        raise TestError("must_unfold_law expects a recursive test mu X.t")
    unfolded = substitute(test.body, test.var, test)
    rec_lts, rec_root = reachable_lts(test)
    unf_lts, unf_root = reachable_lts(unfolded)
    rec = must_states(compose_all(proc, rec_lts, rec_root))
    unf = must_states(compose_all(proc, unf_lts, unf_root))
    return UnfoldVerdicts(rec, unf, proc.full_mask & ~proc.divergent_mask)
