"""Syntax and operational semantics of test processes.

Grammar: nil, success (omega then stop), action prefix over tau and visible
actions, variables, binary sum and recursion mu X.t.  Success is the only
way omega enters a test.  The step relation follows the usual rules: a
prefix fires its action, a sum commits to one side, and recursion unfolds
in a single tau step.

Free variables and substitution are the shared binder operations of
rechml.formulas, re-exported here.  Exploration does not use them: it
converts the root once to de Bruijn nodes interned to ints (de Bruijn
1972), steps and substitutes on those ids, and tells states apart by id.  The named canonical term of a state is
built only when a caller reads it; its printed text, which names equation
variables, is printed straight from the ids.
"""

from collections.abc import Mapping
from dataclasses import dataclass

from .formulas import Binder, Term, Variable, free_vars, substitute
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
        object.__setattr__(self, "free", self.body.free)


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


def _require_closed(term):
    if term.free:
        raise TestError(f"open test term; free: {', '.join(sorted(term.free))}")


# Interned de Bruijn nodes: ("0",), ("w",), ("pre", action, id),
# ("+", id, id), ("mu", id) and ("idx", k), where k counts the binders
# between a variable and its own.
_NIL, _SUCCESS = ("0",), ("w",)


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
            match node:
                case ("idx", k):
                    depth = k + 1
                case ("pre", _, body):
                    depth = self.depth[body]
                case ("+", left, right):
                    depth = max(self.depth[left], self.depth[right])
                case ("mu", body):
                    depth = max(self.depth[body] - 1, 0)
                case _:
                    depth = 0
            got = self._ids[node] = len(self.nodes)
            self.nodes.append(node)
            self.depth.append(depth)
        return got

    def convert(self, term) -> int:
        """Intern a closed Test; one walk with its own stack and one scope
        dict, whose shadowed entry each binder saves and restores."""
        _require_closed(term)
        scope: dict[str, int] = {}  # variable -> binders around its binder
        binders = 0  # binders around the current node
        built = []
        stack = [term]
        while stack:
            match stack.pop():
                case Prefix(action, body):
                    stack.append(("pre", action))
                    stack.append(body)
                case Sum(left, right):
                    stack.append(("+",))
                    stack.append(right)
                    stack.append(left)
                case Mu(var, body):
                    stack.append(("mu", var, scope.get(var)))
                    scope[var] = binders
                    binders += 1
                    stack.append(body)
                case Var(name):
                    built.append(self.intern(("idx", binders - 1 - scope[name])))
                case Nil():
                    built.append(self.nil)
                case Success():
                    built.append(self.intern(_SUCCESS))
                case ("pre", action):
                    built[-1] = self.intern(("pre", action, built[-1]))
                case ("+",):
                    right = built.pop()
                    built[-1] = self.intern(("+", built[-1], right))
                case ("mu", var, shadowed):
                    binders -= 1
                    if shadowed is None:
                        del scope[var]
                    else:
                        scope[var] = shadowed
                    built[-1] = self.intern(("mu", built[-1]))
                case other:
                    raise TestError(f"not a test term: {other!r}")
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
    prefix = Test.bound_prefix
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
                    scope.append(f"{prefix}{count}")
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


def _printed(nodes: list[tuple], depth: list[int], root: int, memo: dict | None) -> str:
    """format_test of the canonical Test of an interned closed term, printed
    straight from the nodes: binders named B0, B1, ... in preorder and the
    precedence and tail rules of format_test.  One walk with its own stack.
    A closed subterm prints the same text at the same level and tail after
    the same number of binders, so memo keeps it, with the number of
    binders inside it, under (id, level, tail, binders before it).  The
    memo holds the text of every closed subterm, so a single print passes
    None: on a chain of n prefixes that text is n squared characters."""
    prefix = Test.bound_prefix
    scope: list[str] = []  # binder names, innermost last
    count = 0  # binders numbered so far
    out: list[str] = []
    stack: list = [(root, 0, True)]
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
        elif item is None:  # the end of a binder's body
            scope.pop()
        elif len(item) == 2:  # a closed subterm is printed: keep it
            key, start = item
            piece = "".join(out[start:])
            del out[start:]
            out.append(piece)
            memo[key] = (piece, count - key[3])
        else:
            node, level, tail = item
            shape = nodes[node]
            tag = shape[0]
            if tag == "0":
                out.append("0")
                continue
            if tag == "w":
                out.append("w.0")
                continue
            if tag == "idx":
                out.append(scope[-1 - shape[1]])
                continue
            if memo is not None and not depth[node]:
                key = (node, level, tail, count)
                got = memo.get(key)
                if got is not None:
                    out.append(got[0])
                    count += got[1]
                    continue
                stack.append((key, len(out)))
            # levels are 0 (sum) and 1 (prefix), so a prefix is never
            # parenthesised
            if tag == "pre":
                out.append(f"{shape[1]}.")
                stack.append((shape[2], 1, tail))
            elif tag == "+":
                if level:
                    out.append("(")
                    stack.append(")")
                stack.append((shape[2], 1, tail))
                stack.append(" + ")
                stack.append((shape[1], 0, False))
            else:
                name = f"{prefix}{count}"
                count += 1
                if not tail:
                    out.append("(")
                    stack.append(")")
                out.append(f"mu {name}. ")
                scope.append(name)
                stack.append(None)
                stack.append((shape[1], 0, True))
    return "".join(out)


class _Terms(Mapping):
    """Read-only map from state name to canonical Test, built on first read
    of a name and kept for later reads."""

    def __init__(self, nodes: list[tuple], depth: list[int], ids: dict[str, int]):
        self._nodes = nodes
        self._depth = depth
        self._ids = ids
        self._built: dict[str, Test] = {}
        self._texts: dict[tuple, tuple[str, int]] = {}

    def __getitem__(self, name: str) -> Test:
        got = self._built.get(name)
        if got is None:
            got = self._built[name] = _named(self._nodes, self._ids[name])
        return got

    def text(self, name: str) -> str:
        """format_test(self[name]), printed from the interned nodes without
        building the Test; subterms shared between states print once."""
        return _printed(self._nodes, self._depth, self._ids[name], self._texts)

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
    names = ["t0"]
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
                        _clip(_printed(table.nodes, table.depth, t, None))
                        for t in [target] + queue[at : at + 2]
                    )
                    raise CapExceeded(
                        f"more than {max_states} reachable test terms; "
                        f"frontier starts: {sample}"
                    )
                i = index[target] = len(queue)
                queue.append(target)
                names.append(f"t{i}")
            triples.append((source, slots.setdefault(action, len(slots)), i))
    lts = Lts._from_triples(names, dict(zip(names, range(len(names)))), list(slots), triples, name="test")
    return lts, "t0", _Terms(table.nodes, table.depth, dict(zip(names, queue)))


def reachable_lts(term, max_states: int = 100_000) -> tuple[Lts, str]:
    """The finite LTS generated by a closed test term, and its root state."""
    lts, root, _ = explore(term, max_states)
    return lts, root
