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
over the n test states, and each side's strong moves are read straight
from the successor index lists of Lts.strong_row.  Names are attached at
the end.

An Experiment keeps one memo of the moves built so far, shared by two
searches that stop and resume:

- a breadth-first search from its roots, which may_satisfy and
  may_witness run to the first success configuration and which reading
  the whole graph (configs, edges, success, len) runs to the end.  It
  numbers the configurations it finds and keeps a cursor of those it
  has expanded, but no edge lists: edges is read off the numbers and
  the move memo;
- a depth-first search for must over the non-success configurations
  (Liu and Smolka 1998), which stops at the first non-success deadlock
  or cycle and keeps what it settles.

One root (parallel_compose, which the CLI uses) is answered by
may_satisfy, may_witness, must_satisfy and must_counterexample.  Every
root (compose_all, which the harness uses) is answered by must_states,
one depth-first search per root over the shared memo, so each
configuration is settled once and no breadth-first search runs, and by
may_states, a backward search from the success configurations of the
whole graph.
"""

from itertools import islice

from .lts import TAU, Lts, LtsError, lazy, visible
from .testterms import CapExceeded


def _product(proc: Lts, test: Lts):
    """The moves of the product of proc and test on int keys: returns
    (n, moves) where configuration (ip, it) is the key ip * n + it and
    moves(key) lists its target keys as process taus, test taus, then
    shared actions by name, each once.  Witness and counterexample paths
    follow this order.  Each side's moves are read from the successor
    index lists of Lts.strong_row; the shared actions a test state offers
    are listed on its first move."""
    if proc.omega_mask:
        raise LtsError("process side of an experiment cannot use omega")
    n = len(test.states)
    acts = [visible(a) for a in sorted(set(proc.alphabet) & set(test.alphabet))]
    proc_tau, test_tau = proc.strong_row(TAU), test.strong_row(TAU)
    shared = [(proc.strong_row(a), test.strong_row(a)) for a in acts]
    offers: list[list | None] = [None] * n  # per test state: (proc row, its targets)

    def moves(key):
        ip, it = divmod(key, n)
        ps = proc_tau[ip]
        targets = [jp * n + it for jp in ps] if ps else []
        ts = test_tau[it]
        if ts:
            targets += [ip * n + jt for jt in ts]
        offered = offers[it]
        if offered is None:
            offered = offers[it] = [(proc_row, test_row[it]) for proc_row, test_row in shared
                                    if test_row[it]]
        for proc_row, ts in offered:
            ps = proc_row[ip]
            if ps:
                targets += [jp * n + jt for jp in ps for jt in ts]
        return list(dict.fromkeys(targets)) if len(targets) > 1 else targets

    return n, moves


# the default cap on the configurations an experiment builds moves for
MAX_CONFIGS = 10_000_000


class Experiment:
    """The process states with indices roots, each against test state t.

    Configurations are numbered in the order one breadth-first search
    from the roots finds them, moves in the order of _product: the root
    of process state roots[k] is configuration k, edges[k] lists the
    successors of configuration k, and success[k] marks configurations
    whose test component offers omega.  The search runs only as far as
    what is read needs: up to the first success configuration for
    may_satisfy and may_witness, to the end for configs, edges, success
    and len; edges is derived when first read.  Its move memo also
    serves the depth-first must search (Liu and Smolka 1998) and is what
    built counts.  Building the moves of more than max_configs
    configurations raises CapExceeded.
    """

    def __init__(self, proc: Lts, test: Lts, roots, t: str, max_configs: int = MAX_CONFIGS):
        if max_configs < 1:
            raise ValueError(f"max_configs must be at least 1, got {max_configs}")
        self._n, self._build = _product(proc, test)
        start = test.state_index(t)
        self.proc, self.test, self.roots = proc, test, list(roots)
        self._keys = [ip * self._n + start for ip in self.roots]  # in search order
        self._index = {key: k for k, key in enumerate(self._keys)}
        self._parent: list[int | None] = [None] * len(self._keys)
        self._expanded = 0  # the breadth-first search's cursor into _keys
        self._cap = max_configs
        self._moves: dict[int, list[int]] = {}  # the moves built so far, by key
        self._failing: dict[int, bool] = {}

    @property
    def built(self) -> int:
        """Configurations whose moves have been built so far."""
        return len(self._moves)

    def _moves_of(self, key: int) -> list[int]:
        """The moves of a configuration, built on first call, for at most
        max_configs configurations."""
        got = self._moves.get(key)
        if got is None:
            if len(self._moves) >= self._cap:
                raise CapExceeded(f"the experiment needs the moves of more than {self._cap} "
                                  "configurations (the --max-configs cap)")
            got = self._moves[key] = self._build(key)
        return got

    def _search(self, stop: bool) -> int | None:
        """Run the breadth-first search on from its cursor, numbering each
        new configuration and recording its parent.  With stop, halt
        before expanding the first success configuration and return its
        position; otherwise run to the end and return None."""
        keys, index, parent = self._keys, self._index, self._parent
        memo, moves_of = self._moves, self._moves_of
        omega, n = self.test.omega_mask, self._n
        k = self._expanded
        for key in islice(keys, k, None):  # the key list is the queue: it grows while walked
            if stop and omega >> key % n & 1:
                self._expanded = k
                return k
            for target in memo.get(key) or moves_of(key):
                if target not in index:
                    index[target] = len(keys)
                    keys.append(target)
                    parent.append(k)
            k += 1
        self._expanded = k
        return None

    def __len__(self):
        self._search(False)
        return len(self._keys)

    @lazy
    def edges(self) -> list[list[int]]:
        self._search(False)
        index, memo = self._index, self._moves
        return [[index[target] for target in memo[key]] for key in self._keys]

    @lazy
    def success(self) -> list[bool]:
        self._search(False)
        omega, n = self.test.omega_mask, self._n
        return [bool(omega >> key % n & 1) for key in self._keys]

    @lazy
    def configs(self) -> list[tuple[str, str]]:
        self._search(False)
        return self._names(self._keys)

    def _names(self, keys):
        n, proc, test = self._n, self.proc.states, self.test.states
        return [(proc[key // n], test[key % n]) for key in keys]

    def _root(self) -> int:
        """The key of the only root: the local answers are about one."""
        if len(self.roots) != 1:
            raise LtsError(f"an experiment of {len(self.roots)} roots: the local answers take one; "
                           "read may_states or must_states")
        return self._keys[0]

    def _goal(self) -> int | None:
        """Position of the first success configuration, or None.  An
        unfinished search has stopped there or not reached it yet."""
        self._root()
        if self._expanded < len(self._keys):
            return self._search(True)
        return next((k for k, ok in enumerate(self.success) if ok), None)

    def _fails(self, key: int) -> bool:
        """Whether some maximal computation from the configuration never
        reaches success.  A depth-first search over the non-success
        configurations stops at the first deadlock or the first move back
        into its stack or into a configuration known to fail; then every
        configuration on the stack fails.  A configuration whose search
        ends without that passes: it moves, and every move passes."""
        status, moves_of, omega, n = self._failing, self._moves_of, self.test.omega_mask, self._n
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
            moves = moves_of(c)
            if not moves:
                break
            on_stack.add(c)
            todo.append(iter(moves))
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


def parallel_compose(proc: Lts, test: Lts, p: str, t: str,
                     max_configs: int = MAX_CONFIGS) -> Experiment:
    """The experiment of process state p against test state t.

    The process must not mention omega; the test may.  Nothing is built
    until an answer, or the whole graph, is asked for, and an answer that
    needs the moves of more than max_configs configurations raises
    CapExceeded.
    """
    return Experiment(proc, test, (proc.state_index(p),), t, max_configs)


def compose_all(proc: Lts, test: Lts, t: str) -> Experiment:
    """One experiment of every process state against test state t:
    configuration i is (proc.states[i], t).  Whether a configuration
    passes does not depend on the root it was reached from, so what one
    root's answer settles serves every other root."""
    return Experiment(proc, test, range(len(proc.states)), t)


def _root_mask(experiment: Experiment, inside: list[bool]) -> int:
    mask = 0
    for k, ip in enumerate(experiment.roots):
        if inside[k]:
            mask |= 1 << ip
    return mask


def may_satisfy(experiment: Experiment) -> bool:
    """Some computation from the root reaches a success configuration."""
    return experiment._goal() is not None


def must_satisfy(experiment: Experiment) -> bool:
    """Every maximal computation from the root visits a success
    configuration."""
    return not experiment._fails(experiment._root())


def may_witness(experiment: Experiment):
    """A successful computation as a list of configurations, or None: the
    path to the first success configuration in breadth-first move order."""
    at = experiment._goal()
    if at is None:
        return None
    path = []
    while at is not None:
        path.append(experiment._keys[at])
        at = experiment._parent[at]
    return experiment._names(reversed(path))


def must_counterexample(experiment: Experiment):
    """An unsuccessful maximal computation when the root must-fails.

    Returns (path, loop_index) where path is a list of configurations and
    loop_index is the position the final configuration loops back to, or
    None when the path ends in a deadlocked configuration.  Each step
    takes the first move, in move order, into a failing configuration.
    Returns None when the root must-passes.
    """
    root = experiment._root()
    fails, moves_of = experiment._fails, experiment._moves_of
    if not fails(root):
        return None
    path = [root]
    position = {root: 0}
    while True:
        nxt = next((d for d in moves_of(path[-1]) if fails(d)), None)
        if nxt is None:
            return experiment._names(path), None
        path.append(nxt)
        if nxt in position:
            return experiment._names(path), position[nxt]
        position[nxt] = len(path) - 1


def may_states(experiment: Experiment) -> int:
    """Mask of the root process states that may pass: a backward search
    from the success configurations over the predecessors of the whole
    graph."""
    edges, inside = experiment.edges, list(experiment.success)
    preds: list[list[int]] = [[] for _ in edges]
    for src, targets in enumerate(edges):
        for dst in targets:
            preds[dst].append(src)
    queue = [c for c, ok in enumerate(inside) if ok]
    for c in queue:  # the queue grows while walked
        for p in preds[c]:
            if not inside[p]:
                inside[p] = True
                queue.append(p)
    return _root_mask(experiment, inside)


def must_states(experiment: Experiment) -> int:
    """Mask of the root process states that must pass: the depth-first
    search of must_satisfy from each root in turn, over one move memo and
    one record of the configurations it has settled."""
    fails, roots = experiment._fails, experiment._keys[: len(experiment.roots)]
    return _root_mask(experiment, [not fails(key) for key in roots])
