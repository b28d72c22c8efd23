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
or some move leads into the set"; one backward worklist computes both.
"""

from collections import deque
from dataclasses import dataclass

from .lts import TAU, Lts, LtsError, visible
from .testterms import Mu, Test, TestError, reachable_lts


@dataclass
class ExperimentGraph:
    """Reachable configurations of a process paired with a test.  The
    roots come first, configuration 0 for a single-root graph and
    configuration i for process state i in an all-roots graph; edges[i]
    lists successor indices in deterministic order; success[i] marks
    configurations whose test component offers omega."""

    proc: Lts
    test: Lts
    configs: list[tuple[str, str]]
    edges: list[list[int]]
    success: list[bool]

    @property
    def root(self) -> int:
        return 0

    def __len__(self):
        return len(self.configs)


def _compose(proc: Lts, test: Lts, roots, t: str) -> ExperimentGraph:
    """Breadth-first product seeded with (i, t) for each process state
    index i in roots, in that order."""
    if proc.has_omega:
        raise LtsError("process side of an experiment cannot use omega")
    it = test.state_index(t)

    configs = [(ip, it) for ip in roots]
    index: dict[tuple[int, int], int] = {pair: k for k, pair in enumerate(configs)}
    edges: list[list[int]] = []
    queue = deque(configs)
    shared = [visible(a) for a in sorted(set(proc.alphabet) & set(test.alphabet))]

    def config_id(pair):
        got = index.get(pair)
        if got is None:
            got = len(configs)
            index[pair] = got
            configs.append(pair)
            queue.append(pair)
        return got

    while queue:
        cp, ct = queue.popleft()
        out: list[int] = []
        seen: set[int] = set()

        def push(pair):
            cid = config_id(pair)
            if cid not in seen:
                seen.add(cid)
                out.append(cid)

        for j in proc.iter_mask(proc.strong_mask(TAU, cp)):
            push((j, ct))
        for j in test.iter_mask(test.strong_mask(TAU, ct)):
            push((cp, j))
        for action in shared:
            pmask = proc.strong_mask(action, cp)
            if not pmask:
                continue
            tmask = test.strong_mask(action, ct)
            if not tmask:
                continue
            for jp in proc.iter_mask(pmask):
                for jt in test.iter_mask(tmask):
                    push((jp, jt))
        edges.append(out)

    success = [bool(test.omega_mask & (1 << ct)) for _, ct in configs]
    named = [(proc.states[i], test.states[j]) for i, j in configs]
    return ExperimentGraph(proc, test, named, edges, success)


def parallel_compose(proc: Lts, test: Lts, p: str, t: str) -> ExperimentGraph:
    """Experiment graph of process state p against test state t.

    The process must not mention omega; the test may.  Only configurations
    reachable from (p, t) are materialized.
    """
    return _compose(proc, test, (proc.state_index(p),), t)


def compose_all(proc: Lts, test: Lts, t: str) -> ExperimentGraph:
    """One experiment graph for every process state against test state t:
    configuration i is (proc.states[i], t).  Whether a configuration
    passes does not depend on the root it was reached from, so one solve
    answers every state."""
    return _compose(proc, test, range(len(proc.states)), t)


def _passing(graph: ExperimentGraph, every: bool) -> list[bool]:
    """Configurations that pass, as the least set holding the success
    configurations and closed backwards: a configuration joins once some
    move (may) or, with at least one move, every move (must) leads into
    the set.  Solved with a worklist of remaining-move counters."""
    n = len(graph.configs)
    preds: list[list[int]] = [[] for _ in range(n)]
    remaining = [0] * n
    for src, targets in enumerate(graph.edges):
        remaining[src] = len(targets) if every else 1
        for dst in targets:
            preds[dst].append(src)
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


def _root_mask(graph: ExperimentGraph, every: bool) -> int:
    inside = _passing(graph, every)
    mask = 0
    for i in range(len(graph.proc.states)):
        if inside[i]:
            mask |= 1 << i
    return mask


def may_satisfy(graph: ExperimentGraph) -> bool:
    """Some computation from the root reaches a success configuration."""
    return _passing(graph, False)[0]


def must_satisfy(graph: ExperimentGraph) -> bool:
    """Every maximal computation from the root visits a success
    configuration."""
    return _passing(graph, True)[0]


def may_states(graph: ExperimentGraph) -> int:
    """Mask of the process states that may pass, for a compose_all graph."""
    return _root_mask(graph, False)


def must_states(graph: ExperimentGraph) -> int:
    """Mask of the process states that must pass, for a compose_all graph."""
    return _root_mask(graph, True)


def may_witness(graph: ExperimentGraph):
    """A successful computation as a list of configurations, or None."""
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


def must_counterexample(graph: ExperimentGraph):
    """An unsuccessful maximal computation when the root must-fails.

    Returns (path, loop_index) where path is a list of configurations and
    loop_index is the position the final configuration loops back to, or
    None when the path ends in a deadlocked configuration.  Returns None
    when the root must-passes.
    """
    inside = _passing(graph, True)
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
