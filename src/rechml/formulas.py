"""Syntax of recursive Hennessy-Milner logic, and the binder operations
shared with test terms.

Formula nodes are frozen dataclasses compared structurally.  Functions here
are purely syntactic: free variables, capture-avoiding substitution,
fragment membership, finite approximants and elimination of simultaneous
fixpoints.  Interpretation over an Lts lives in rechml.semantics.

The first two work on any term language built from the marker bases
Term, Variable and Binder: formulas here and the test terms of
rechml.testterms, which re-exports them.  They look only at the shape of a
node (variable, binder or other) and reach other nodes through the
family's map_children(f).

Every node carries its free variables in the slot free, built with the
node from its children's sets, so no walk recomputes them.  Large
formulas produced by substitution share subterm objects, so the only
identity memos left, those of substitution itself, tree_size,
nesting_depth, _offender and approximant, keep those walks linear in the
size of the shared graph rather than the unfolded tree.  The printer,
rechml.textio.format_formula, keeps one more: the text of each node with
several parents, so it builds that text once.
"""

from dataclasses import dataclass

from .lts import Action, LtsError, visible


class FormulaError(Exception):
    """Raised for open formulas, fragment violations and bad indices."""


_CLOSED = frozenset()


class Term:
    """Base of a term language with binders.  A family names the prefix of
    its canonical bound names in bound_prefix and defines map_children(f),
    which rebuilds a node with f applied to each child.  free holds the
    node's free variables, set in __post_init__; it is a slot, not a field,
    so equality, hashing and repr ignore it and vars() holds only the
    fields."""

    __slots__ = ("free",)

    def __post_init__(self):
        if isinstance(self, Variable):
            free = frozenset((self.name,))
        elif isinstance(self, Binder):
            free = self.body.free
            if self.var in free:
                free = free - {self.var}
        else:
            # the children are the fields that hold terms
            free = _CLOSED
            for child in vars(self).values():
                if isinstance(child, Term) and child.free:
                    free = free | child.free if free else child.free
        object.__setattr__(self, "free", free)


class Variable:
    """Marker for variable nodes; they have a field name."""

    __slots__ = ()


class Binder:
    """Marker for binder nodes; they have fields var and body, and name the
    variable class of their family in var_class."""

    __slots__ = ()


class Formula(Term):
    __slots__ = ()
    bound_prefix = "V"

    def __str__(self):
        from .textio import format_formula

        return format_formula(self)

    def children(self):
        match self:
            case Or(l, r) | And(l, r):
                return (l, r)
            case Dia(_, b) | Box(_, b) | Min(_, b) | Max(_, b):
                return (b,)
            case _:
                return ()

    def map_children(self, f):
        match self:
            case Or(l, r):
                return Or(f(l), f(r))
            case And(l, r):
                return And(f(l), f(r))
            case Dia(a, b):
                return Dia(a, f(b))
            case Box(a, b):
                return Box(a, f(b))
            case Min(x, b) | Max(x, b):
                return type(self)(x, f(b))
            case _:
                return self


@dataclass(frozen=True)
class Tt(Formula):
    pass


@dataclass(frozen=True)
class Ff(Formula):
    pass


@dataclass(frozen=True)
class Var(Formula, Variable):
    name: str


@dataclass(frozen=True)
class Acc(Formula):
    """Acceptance: convergent, and every stable tau-derivative can perform
    one of the given visible actions (weakly)."""

    actions: frozenset[str]

    def __post_init__(self):
        object.__setattr__(self, "actions", frozenset(self.actions))
        object.__setattr__(self, "free", _CLOSED)
        for a in self.actions:
            if not isinstance(a, str):
                raise FormulaError(f"bad action name in Acc: {a!r}")
            try:
                visible(a)
            except LtsError as err:
                raise FormulaError(f"bad action name in Acc: {a!r}") from err


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Dia(Formula):
    action: Action
    body: Formula

    def __post_init__(self):
        if self.action.kind == "omega":
            raise FormulaError("omega cannot appear in a modality")
        object.__setattr__(self, "free", self.body.free)


@dataclass(frozen=True)
class Box(Formula):
    action: Action
    body: Formula

    def __post_init__(self):
        if self.action.kind == "omega":
            raise FormulaError("omega cannot appear in a modality")
        object.__setattr__(self, "free", self.body.free)


@dataclass(frozen=True)
class Min(Formula, Binder):
    var: str
    body: Formula
    var_class = Var


@dataclass(frozen=True)
class Max(Formula, Binder):
    var: str
    body: Formula
    var_class = Var


@dataclass(frozen=True)
class SimFormula:
    """A simultaneous least fixpoint: variables, one body per variable and
    the projected component (0-based)."""

    variables: tuple[str, ...]
    bodies: tuple[Formula, ...]
    index: int

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        object.__setattr__(self, "bodies", tuple(self.bodies))
        if len(self.variables) != len(self.bodies):
            raise FormulaError("variable/body count mismatch")
        if not self.variables:
            raise FormulaError("empty simultaneous formula")
        if len(set(self.variables)) != len(self.variables):
            raise FormulaError("duplicate variables in simultaneous formula")
        if not 0 <= self.index < len(self.variables):
            raise FormulaError(f"projection index {self.index} out of range")


def free_vars(term) -> frozenset[str]:
    return term.free


def fresh_name(base: str, avoid) -> str:
    """First name of the shape base, base1, base2, ... not in avoid."""
    if base not in avoid:
        return base
    k = 1
    while f"{base}{k}" in avoid:
        k += 1
    return f"{base}{k}"


def _substitute_many(term, mapping: dict[str, Term]) -> Term:
    memo: dict[tuple, Term] = {}

    def sub(node, mapping):
        fv = node.free
        live = {v: r for v, r in mapping.items() if v in fv}
        if not live:
            return node
        key = (id(node), tuple(sorted((v, id(r)) for v, r in live.items())))
        got = memo.get(key)
        if got is not None:
            return got
        match node:
            case Variable(name=name):
                out = live[name]
            case Binder(var=x, body=b):
                # x is bound here, so it is never among the live variables
                incoming = frozenset()
                for r in live.values():
                    incoming |= r.free
                if x in incoming:
                    x2 = fresh_name(x, fv | incoming | {x})
                    live[x] = node.var_class(x2)
                    x = x2
                out = type(node)(x, sub(b, live))
            case _:
                out = node.map_children(lambda child: sub(child, live))
        memo[key] = out
        return out

    return sub(term, dict(mapping))


def substitute(term, var: str, replacement) -> Term:
    """Capture-avoiding substitution of replacement for free occurrences of
    var.  Bound variables are renamed (with a numeric suffix) only when a
    free variable of the replacement would otherwise be captured."""
    return _substitute_many(term, {var: replacement})


def _offender(formula, allowed):
    """First subterm (preorder) whose node type is not in allowed, or None."""
    memo: dict[int, Formula | None] = {}

    def walk(node):
        if id(node) in memo:
            return memo[id(node)]
        if not isinstance(node, allowed):
            out = node
        else:
            out = None
            for child in node.children():
                out = walk(child)
                if out is not None:
                    break
        memo[id(node)] = out
        return out

    return walk(formula)


_MAY_NODES = (Tt, Ff, Var, Dia, Or, Min)
_MUST_NODES = (Tt, Ff, Var, Acc, Box, And, Min)


def _require_closed(formula, what):
    fv = formula.free
    if fv:
        names = ", ".join(sorted(fv))
        raise FormulaError(f"{what} expects a closed formula; free: {names}")


def is_mayhml(formula) -> bool:
    """Membership in the may fragment: tt, ff, variables, diamonds,
    disjunction and least fixpoints.  The formula must be closed."""
    _require_closed(formula, "is_mayhml")
    return _offender(formula, _MAY_NODES) is None


def is_musthml(formula) -> bool:
    """Membership in the must fragment: tt, ff, Acc, variables, boxes,
    conjunction and least fixpoints.  The formula must be closed."""
    _require_closed(formula, "is_musthml")
    return _offender(formula, _MUST_NODES) is None


def fragment_offender(formula, fragment: str):
    """First subterm (preorder) outside the given fragment, or None."""
    return _offender(formula, _MAY_NODES if fragment == "may" else _MUST_NODES)


def is_tt_grammar(formula) -> bool:
    """True for formulas built only from tt, conjunction and min binders.

    Such formulas denote the full state set on every system; within the
    closed must fragment the converse holds as well, which is what the
    translation to tests relies on.  Input must be in the must fragment.
    """
    if not is_musthml(formula):
        raise FormulaError("is_tt_grammar expects a formula in the must fragment")
    return _offender(formula, (Tt, And, Min)) is None


def nesting_depth(formula) -> int:
    """Maximum number of nested fixpoint binders."""
    memo: dict[int, int] = {}

    def walk(node):
        got = memo.get(id(node))
        if got is not None:
            return got
        kids = [walk(c) for c in node.children()]
        out = max(kids, default=0)
        if isinstance(node, (Min, Max)):
            out += 1
        memo[id(node)] = out
        return out

    return walk(formula)


def tree_size(formula) -> int:
    """Number of nodes of the formula printed as a tree, counted over its
    shared subterms in time linear in the distinct nodes."""
    memo: dict[int, int] = {}

    def walk(node):
        got = memo.get(id(node))
        if got is None:
            got = 1
            for child in node.children():
                got += walk(child)
            memo[id(node)] = got
        return got

    return walk(formula)


def approximant(formula, k: int) -> Formula:
    """The k-th finite approximant of a closed must formula.

    Level 0 is ff; tt, ff and Acc are their own approximants at every
    positive level; boxes and conjunctions approximate componentwise at the
    same level; a least fixpoint unfolds once and drops one level.  The
    result contains no binders.
    """
    if k < 0:
        raise FormulaError("approximant level must be nonnegative")
    if not is_musthml(formula):
        raise FormulaError("approximant is defined on the closed must fragment")
    memo: dict[tuple[int, int], Formula] = {}
    unfolded = []  # keeps every unfolding alive, so no id in memo is reused

    def appr(node, k):
        if k == 0:
            return Ff()
        key = (id(node), k)
        got = memo.get(key)
        if got is not None:
            return got
        match node:
            case Tt() | Ff() | Acc():
                out = node
            case Box(a, b):
                out = Box(a, appr(b, k))
            case And(l, r):
                out = And(appr(l, k), appr(r, k))
            case Min(x, b):
                unfolded.append(substitute(b, x, node))
                out = appr(unfolded[-1], k - 1)
            case _:
                raise FormulaError(f"approximant hit unexpected node {node!r}")
        memo[key] = out
        return out

    return appr(formula, k)


def sim_free_vars(sim: SimFormula) -> frozenset[str]:
    out = frozenset()
    for body in sim.bodies:
        out |= body.free
    return out - set(sim.variables)


def bekic_eliminate(sim: SimFormula) -> Formula:
    """Collapse a simultaneous least fixpoint to a single-variable formula.

    The projected variable is moved to the front, then the remaining
    variables are eliminated last-first: close the final equation with its
    own min binder and substitute it into every earlier body.  The result
    is semantically the requested projection.
    """
    leftover = sim_free_vars(sim)
    if leftover:
        names = ", ".join(sorted(leftover))
        raise FormulaError(f"open simultaneous formula; free: {names}")
    variables = list(sim.variables)
    bodies = list(sim.bodies)
    variables.insert(0, variables.pop(sim.index))
    bodies.insert(0, bodies.pop(sim.index))
    while len(variables) > 1:
        x = variables.pop()
        closed = Min(x, bodies.pop())
        bodies = [substitute(b, x, closed) if x in b.free else b for b in bodies]
    return Min(variables[0], bodies[0])
