"""Syntax and operational semantics of test processes.

Grammar: nil, success (omega then stop), action prefix over tau and visible
actions, variables, binary sum and recursion mu X.t.  Success is the only
way omega enters a test.  The step relation follows the usual rules: a
prefix fires its action, a sum commits to one side, and recursion unfolds
in a single tau step.

Test nodes are built from the shape bases of rechml.formulas, so free
variables and substitution are the binder operations of that module,
re-exported here.  Exploration does not use them: it converts the root
once to de Bruijn nodes interned to ints (de Bruijn 1972), steps and
substitutes on those ids, and tells states apart by id.  The conversion
dispatches on the exact type of each node, as the walks of
rechml.formulas do (its docstring says why), so a subclass of a node
class is not a test term.  The named canonical
term of a state is built only when a caller reads it.
"""

from collections.abc import Mapping

from .formulas import Binder, Leaf, Pair, Prefixed, Term, Variable, free_vars, substitute
from .lts import OMEGA, TAU, Action, Lts


class TestError(Exception):
    """Raised for open test terms and malformed constructions."""


class CapExceeded(TestError):
    """Exploration produced more reachable terms than the configured cap,
    or an experiment needed the moves of more configurations than its
    cap; indicates a runaway construction rather than bad input."""


class Test(Term):
    __slots__ = ()
    error = TestError
    omega_error = "omega prefixes only nil; use Success"

    def __str__(self):
        from .textio import format_test

        return format_test(self)


class Nil(Test, Leaf):
    pass


class Success(Test, Leaf):
    """The test omega.0: report success, then stop."""


class Prefix(Test, Prefixed):
    pass


class Var(Test, Variable):
    pass


class Sum(Test, Pair):
    pass


class Mu(Test, Binder):
    var_class = Var


def _require_closed(term):
    if term.free:
        raise TestError(f"open test term; free: {', '.join(sorted(term.free))}")


# Interned de Bruijn nodes: ("0",), ("w",), ("pre", action, id),
# ("+", id, id), ("mu", id) and ("idx", k), where k counts the binders
# between a variable and its own.
_NIL, _SUCCESS = ("0",), ("w",)
_SUM = (Sum,)  # marks a sum in convert's stack


class _Table:
    """Closed test terms as interned de Bruijn nodes.  Two alpha-equivalent
    terms get the same id, so a state is deduplicated by an int lookup and
    no term is hashed, compared or renamed.  Every id also records its
    free depth: 1 + its highest free index, or 0 when it is closed."""

    def __init__(self):
        self.nodes: list[tuple] = []
        self.depth: list[int] = []
        self._ids: dict[tuple, int] = {}
        self._substituted: dict[tuple[int, int, int], int] = {}
        self.nil = self.intern(_NIL)

    def intern(self, node: tuple) -> int:
        got = self._ids.get(node)
        if got is None:
            tag = node[0]
            depths = self.depth
            if tag == "pre":
                depth = depths[node[2]]
            elif tag == "+":
                depth = max(depths[node[1]], depths[node[2]])
            elif tag == "mu":
                depth = max(depths[node[1]] - 1, 0)
            elif tag == "idx":
                depth = node[1] + 1
            else:
                depth = 0
            got = self._ids[node] = len(self.nodes)
            self.nodes.append(node)
            depths.append(depth)
        return got

    def convert(self, term) -> int:
        """Intern a closed Test; one walk with its own stack and one scope
        dict, whose shadowed entry each binder saves and restores.  A node
        is dispatched on its exact type, and a tuple on the stack marks a
        node whose children are interned.  Any other object is a
        TestError."""
        _require_closed(term)
        intern = self.intern
        scope: dict[str, int] = {}  # variable -> binders around its binder
        binders = 0  # binders around the current node
        built = []
        stack = [term]
        while stack:
            node = stack.pop()
            kind = type(node)
            if kind is tuple and node:  # (the node's class, its other data)
                tag = node[0]
                if tag is Prefix:
                    built[-1] = intern(("pre", node[1], built[-1]))
                elif tag is Sum:
                    right = built.pop()
                    built[-1] = intern(("+", built[-1], right))
                elif tag is Mu:
                    _, var, shadowed = node
                    binders -= 1
                    if shadowed is None:
                        del scope[var]
                    else:
                        scope[var] = shadowed
                    built[-1] = intern(("mu", built[-1]))
                else:
                    raise TestError(f"not a test term: {node!r}")
            elif kind is Prefix:
                stack.append((Prefix, node.action))
                stack.append(node.body)
            elif kind is Sum:
                stack.append(_SUM)
                stack.append(node.right)
                stack.append(node.left)
            elif kind is Mu:
                var = node.var
                stack.append((Mu, var, scope.get(var)))
                scope[var] = binders
                binders += 1
                stack.append(node.body)
            elif kind is Var:
                built.append(intern(("idx", binders - 1 - scope[node.name])))
            elif kind is Nil:
                built.append(self.nil)
            elif kind is Success:
                built.append(intern(_SUCCESS))
            else:
                raise TestError(f"not a test term: {node!r}")
        return built[0]

    def subst(self, node: int, k: int, closed: int) -> int:
        """The id of node with the closed term closed in place of index k.
        node has no free index above k, so no index needs shifting, and a
        subterm whose free depth is at most k is returned as it is."""
        nodes, depth, memo = self.nodes, self.depth, self._substituted
        built = []
        stack = [(node, k)]
        while stack:
            item = stack.pop()
            if len(item) == 2:
                node, k = item
                if depth[node] <= k:
                    built.append(node)
                    continue
                got = memo.get((node, k, closed))
                if got is not None:
                    built.append(got)
                    continue
                shape = nodes[node]
                tag = shape[0]
                if tag == "idx":  # free depth above k: the index is k
                    built.append(closed)
                    continue
                stack.append((node, k, shape))
                if tag == "+":
                    stack.append((shape[2], k))
                    stack.append((shape[1], k))
                elif tag == "pre":
                    stack.append((shape[2], k))
                else:
                    stack.append((shape[1], k + 1))
            else:
                node, k, shape = item
                tag = shape[0]
                if tag == "+":
                    right = built.pop()
                    out = self.intern(("+", built[-1], right))
                elif tag == "pre":
                    out = self.intern(("pre", shape[1], built[-1]))
                else:
                    out = self.intern(("mu", built[-1]))
                built[-1] = memo[(node, k, closed)] = out
        return built[0]

    def moves(self, state: int) -> list[tuple[Action, int]]:
        """The moves of a closed state, duplicates kept: a prefix fires its
        action, success offers omega, a binder unfolds by a tau step, and
        a sum's summands move left first.  One walk with its own stack."""
        nodes = self.nodes
        out = []
        stack = [state]
        while stack:
            node = stack.pop()
            shape = nodes[node]
            tag = shape[0]
            if tag == "pre":
                out.append((shape[1], shape[2]))
            elif tag == "+":
                stack.append(shape[2])
                stack.append(shape[1])
            elif tag == "mu":
                out.append((TAU, self.subst(shape[1], 0, node)))
            elif tag == "w":
                out.append((OMEGA, self.nil))
        return out


def _named(nodes: list[tuple], root: int) -> Test:
    """The canonical Test of an interned closed term: binders named B0, B1,
    ... in preorder.  One walk with its own stack and one scope list of
    the binder names."""
    scope: list[str] = []  # binder names, innermost last
    count = 0
    built = []
    stack = [root]
    while stack:
        item = stack.pop()
        if item >= 0:
            shape = nodes[item]
            tag = shape[0]
            if tag == "idx":
                built.append(Var(scope[-1 - shape[1]]))
            elif tag == "0":
                built.append(Nil())
            elif tag == "w":
                built.append(Success())
            else:
                stack.append(~item)  # rebuilt once its children are
                if tag == "+":
                    stack.append(shape[2])
                    stack.append(shape[1])
                elif tag == "pre":
                    stack.append(shape[2])
                else:
                    scope.append(f"B{count}")
                    count += 1
                    stack.append(shape[1])
        else:
            shape = nodes[~item]
            tag = shape[0]
            if tag == "+":
                right = built.pop()
                built[-1] = Sum(built[-1], right)
            elif tag == "pre":
                built[-1] = Prefix(shape[1], built[-1])
            else:
                built[-1] = Mu(scope.pop(), built[-1])
    return built[0]


class _Terms(Mapping):
    """Read-only map from state name to canonical Test, built on first read
    of a name and kept for later reads."""

    def __init__(self, nodes: list[tuple], ids: dict[str, int]):
        self._nodes = nodes
        self._ids = ids
        self._built: dict[str, Test] = {}

    def __getitem__(self, name: str) -> Test:
        got = self._built.get(name)
        if got is None:
            got = self._built[name] = _named(self._nodes, self._ids[name])
        return got

    def __iter__(self):
        return iter(self._ids)

    def __len__(self) -> int:
        return len(self._ids)


_SAMPLE_CHARS = 60  # printed length of a frontier term in the cap message


def _clip(text: str) -> str:
    return text if len(text) <= _SAMPLE_CHARS else text[:_SAMPLE_CHARS] + "..."


def explore(term, max_states: int = 100_000):
    """Breadth-first exploration of the reachable test terms up to
    alpha-equivalence.

    Returns (lts, root_name, terms).  States are named t0, t1, ... in
    discovery order, and terms is a read-only mapping from each state name
    to the canonical term it stands for; a term is built when its name is
    first read.  max_states must be at least 1.  The root is converted once
    to interned de Bruijn ids, and states are stepped and told apart on
    those ids.
    """
    if max_states < 1:
        raise ValueError(f"max_states must be at least 1, got {max_states}")
    table = _Table()
    queue = [table.convert(term)]
    index = {queue[0]: 0}
    slots: dict[Action, int] = {}
    triples = []
    at = 0
    while at < len(queue):
        source = at
        moves = table.moves(queue[at])
        at += 1
        for action, target in moves:
            i = index.get(target)
            if i is None:
                if len(queue) >= max_states:
                    sample = ", ".join(
                        _clip(str(_named(table.nodes, t)))
                        for t in [target] + queue[at : at + 2]
                    )
                    raise CapExceeded(
                        f"more than {max_states} reachable test terms; "
                        f"frontier starts: {sample}"
                    )
                i = index[target] = len(queue)
                queue.append(target)
            triples.append((source, slots.setdefault(action, len(slots)), i))
    states = {f"t{i}": i for i in range(len(queue))}
    lts = Lts._from_triples(states, list(slots), triples, name="test")
    return lts, "t0", _Terms(table.nodes, dict(zip(states, queue)))


def reachable_lts(term, max_states: int = 100_000) -> tuple[Lts, str]:
    """The finite LTS generated by a closed test term, and its root state."""
    lts, root, _ = explore(term, max_states)
    return lts, root
