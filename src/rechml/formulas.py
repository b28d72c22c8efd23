"""Syntax of recursive Hennessy-Milner logic, and the binder operations
shared with test terms.

Formula nodes are immutable values compared structurally.  Functions here
are purely syntactic: free variables, capture-avoiding substitution,
fragment membership, finite approximants and elimination of simultaneous
fixpoints.  Interpretation over an Lts lives in rechml.semantics.

A node class joins a family, Formula here or Test in rechml.testterms, and
a shape base (Leaf, Variable, Pair, Prefixed, Binder) that gives it its
fields, constructor and children(); substitution looks only at shapes
(the class attribute shape), so it serves both languages.

The walks that tell nodes apart (substitution, approximant, the evaluator,
the printer, the compilers and explore) test the exact type of a node, or
its shape, by identity, the commonest kinds first: a match statement would
pay an isinstance test and a __match_args__ lookup for every case that
fails.  So a subclass of a node class is no node to them but to
substitution, and each refuses it with its module's error.  A recursive
walk is a module-level function handed its memo, which leaves no
reference cycle to the collector; so is each grammar rule of the parsers
of rechml.textio, handed the token cursor.

Every node carries its free variables in the slot free, built with the
node from its children's sets, so no walk recomputes them.  Large
formulas produced by substitution share subterm objects, so the only
identity memos left, those of substitution itself, fold (behind
tree_size, nesting_depth and both compilers of rechml.translate),
_offender and approximant, keep those walks linear in the size of the
shared graph rather than the unfolded tree.  The printer of
rechml.textio, which serves formulas and tests alike, keeps one more:
the text of each node with several parents, so it builds that text once.
"""

from .lts import LtsError, variable_name, visible


class FormulaError(Exception):
    """Raised for open formulas, fragment violations and bad indices."""


_CLOSED = frozenset()


class Record:
    """A value whose fields are vars(self), in order: records are equal
    when their types are the same and their fields equal, repr prints
    ClassName(field=value, ...), and copy and pickle rebuild them from
    their fields.  A record class lists its fields with their defaults
    (... for none) in _fields, which __init__ takes by position or keyword
    before it calls __post_init__."""

    __slots__ = ()
    _fields = {}

    def __init__(self, *args, **kwargs):
        fields = self._fields
        values = dict(zip(fields, args))
        if len(args) > len(fields) or values.keys() & kwargs or not kwargs.keys() <= fields.keys():
            raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(fields)}, each once")
        for name, default in fields.items():
            value = values.get(name, kwargs.get(name, default))
            if value is ...:
                raise TypeError(f"{type(self).__name__}() is missing the field {name!r}")
            # not through __dict__: reading it makes CPython keep a real dict,
            # which doubles the cost of EvalStats' count per evaluation
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __post_init__(self):
        pass

    def asdict(self) -> dict:
        return dict(vars(self))

    def replace(self, **changes):
        return type(self)(**{**vars(self), **changes})

    def __eq__(self, other):
        return vars(self) == vars(other) if type(other) is type(self) else NotImplemented

    def __repr__(self):
        fields = ", ".join(f"{k}={v!r}" for k, v in vars(self).items())
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(vars(self).values())


class Term(Record):
    """An immutable node, a record whose fields its shape's __init__ sets.
    free, the free variables, is a slot, so vars(), ==, hash and repr
    ignore it.  A family names its exception class in error and its
    refusal of an omega prefix in omega_error."""

    __slots__ = ("free",)

    def __hash__(self):
        return hash(tuple(vars(self).values()))

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete {name!r}: nodes are immutable")

    __delattr__ = __setattr__

    def children(self):
        return ()


# writes the slot free past the refusing __setattr__
_set_free = Term.free.__set__


class Leaf(Term):
    __slots__ = ()

    def __init__(self):
        _set_free(self, _CLOSED)


class Variable(Term):
    __slots__ = ()
    __match_args__ = ("name",)

    def __init__(self, name):
        self.__dict__["name"] = variable_name(name, self.error)
        _set_free(self, frozenset((name,)))


class Pair(Term):
    __slots__ = ()
    __match_args__ = ("left", "right")

    def __init__(self, left, right):
        self.__dict__.update(left=left, right=right)
        # a child that is not a term counts as closed; the evaluator refuses it
        lf = left.free if isinstance(left, Term) else _CLOSED
        rf = right.free if isinstance(right, Term) else _CLOSED
        _set_free(self, lf | rf if lf and rf else lf or rf)

    def children(self):
        return (self.left, self.right)


class Prefixed(Term):
    __slots__ = ()
    __match_args__ = ("action", "body")

    def __init__(self, action, body):
        if action.kind == "omega":
            raise self.error(self.omega_error)
        self.__dict__.update(action=action, body=body)
        _set_free(self, body.free)

    def children(self):
        return (self.body,)


class Binder(Term):
    """Binds var in body; var_class is the family's variable class."""

    __slots__ = ()
    __match_args__ = ("var", "body")

    def __init__(self, var, body):
        self.__dict__.update(var=variable_name(var, self.error), body=body)
        _set_free(self, body.free - {var} if var in body.free else body.free)

    def children(self):
        return (self.body,)


# the shape base of every node class, which substitution dispatches on
Leaf.shape, Variable.shape, Pair.shape, Prefixed.shape, Binder.shape = Leaf, Variable, Pair, Prefixed, Binder


class Formula(Term):
    __slots__ = ()
    error = FormulaError
    omega_error = "omega cannot appear in a modality"

    def __str__(self):
        from .textio import format_formula

        return format_formula(self)


class Tt(Formula, Leaf):
    pass


class Ff(Formula, Leaf):
    pass


class Var(Formula, Variable):
    pass


class Acc(Formula, Leaf):
    """Acceptance: convergent, and every stable tau-derivative can perform
    one of the given visible actions (weakly)."""

    __match_args__ = ("actions",)

    def __init__(self, actions):
        if isinstance(actions, str):
            raise FormulaError(f"Acc takes a collection of action names, not the string {actions!r}")
        actions = frozenset(actions)
        for a in actions:
            try:
                visible(a)
            except LtsError as err:
                raise FormulaError(f"bad action name in Acc: {a!r}") from err
        # filled in sorted order, so that a copy, rebuilt from this node's
        # set, lays out and iterates (and so reprs) its set alike under
        # every hash seed
        self.__dict__["actions"] = frozenset(sorted(actions))
        _set_free(self, _CLOSED)


class Or(Formula, Pair):
    pass


class And(Formula, Pair):
    pass


class Dia(Formula, Prefixed):
    pass


class Box(Formula, Prefixed):
    pass


class Min(Formula, Binder):
    var_class = Var


class Max(Formula, Binder):
    var_class = Var


class SimFormula(Record):
    """A simultaneous least fixpoint: variables, one body per variable and
    the projected component (0-based)."""

    _fields = {"variables": ..., "bodies": ..., "index": ...}
    __setattr__ = __delattr__ = Term.__setattr__
    __hash__ = Term.__hash__

    def __post_init__(self):
        self.__dict__.update(variables=tuple(self.variables), bodies=tuple(self.bodies))
        if len(self.variables) != len(self.bodies):
            raise FormulaError("variable/body count mismatch")
        if not self.variables:
            raise FormulaError("empty simultaneous formula")
        if len(set(self.variables)) != len(self.variables):
            raise FormulaError("duplicate variables in simultaneous formula")
        if not 0 <= self.index < len(self.variables):
            raise FormulaError(f"projection index {self.index} out of range")
        for x in self.variables:
            variable_name(x, FormulaError)


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


# bekic_eliminate builds at most this many nodes, counted as the memo
# entries of its substitutions (each builds at most one node).  A node
# costs about 0.45 KB and 9 us, so a runaway elimination (seeded dense
# tests from about 26 states) stops within about 3 s and 140 MB.  A
# recursive test of n prefixes builds 3n nodes for must, so one of 30,000
# (90,000 nodes) still compiles; tier-1 and benchmark inputs build at most
# 891.
MAX_ELIMINATION_NODES = 300_000


def _substitute_many(term, mapping: dict[str, Term], memo, cap=float("inf")) -> Term:
    """substitute, memoised in the caller's memo; raises CapExceeded once
    it holds more than cap entries."""
    return _substituted(term, mapping, memo, cap)


def _substituted(node, mapping, memo, cap):
    fv = node.free
    if len(mapping) == 1:
        # every Bekic step and unfolding substitutes one variable
        [(v, r)] = mapping.items()
        if v not in fv:
            return node
        key = (id(node), v, id(r))
    else:
        mapping = {v: r for v, r in mapping.items() if v in fv}
        if not mapping:
            return node
        key = (id(node), *sorted((v, id(r)) for v, r in mapping.items()))
    got = memo.get(key)
    if got is not None:
        return got
    # a node with a mapped free variable is no leaf
    shape = node.shape
    if shape is Prefixed:
        out = type(node)(node.action, _substituted(node.body, mapping, memo, cap))
    elif shape is Pair:
        out = type(node)(_substituted(node.left, mapping, memo, cap),
                         _substituted(node.right, mapping, memo, cap))
    elif shape is Variable:
        out = mapping[node.name]
    else:
        # a binder: x is bound here, so it is never among the mapped variables
        x = node.var
        incoming = frozenset()
        for r in mapping.values():
            incoming |= r.free
        if x in incoming:
            x2 = fresh_name(x, fv | incoming | {x})
            mapping = {**mapping, x: node.var_class(x2)}  # mapping may be the caller's
            x = x2
        out = type(node)(x, _substituted(node.body, mapping, memo, cap))
    memo[key] = out
    if len(memo) > cap:
        from .testterms import CapExceeded  # testterms imports this module

        raise CapExceeded(f"Bekic elimination needs more than {MAX_ELIMINATION_NODES} formula nodes")
    return out


def substitute(term, var: str, replacement) -> Term:
    """Capture-avoiding substitution of replacement for free occurrences of
    var.  Bound variables are renamed (with a numeric suffix) only when a
    free variable of the replacement would otherwise be captured."""
    return _substitute_many(term, {var: replacement}, {})


def _offender(formula, allowed):
    """First subterm (preorder) whose node type is not in allowed, or None."""
    return _first_outside(formula, allowed, {})


def _first_outside(node, allowed, memo):
    if id(node) in memo:
        return memo[id(node)]
    out = None if isinstance(node, allowed) else node
    if out is None:
        for child in node.children():
            out = _first_outside(child, allowed, memo)
            if out is not None:
                break
    memo[id(node)] = out
    return out


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


def fold(term, combine):
    """combine(node, values) at the root, values being the children's results in
    order.  Each distinct node is combined once, memoised by id; combine never gives None."""
    return _folded(term, combine, {})


def _folded(node, combine, memo):
    got = memo.get(id(node))
    if got is None:
        values = []  # a loop: before Python 3.12 a comprehension takes a frame per level
        for child in node.children():
            values.append(_folded(child, combine, memo))
        got = memo[id(node)] = combine(node, values)
    return got


def nesting_depth(formula) -> int:
    """Maximum number of nested fixpoint binders."""
    return fold(formula, lambda node, depths: max(depths, default=0) + isinstance(node, Binder))


def tree_size(formula) -> int:
    """Number of nodes of the formula printed as a tree, counted over its
    shared subterms in time linear in the distinct nodes."""
    return fold(formula, lambda node, sizes: 1 + sum(sizes))


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
    return _approximant(formula, k, {}, [])  # the list keeps every unfolding alive, so no id is reused


def _approximant(node, k, memo, unfolded):
    if k == 0:
        return Ff()
    key = (id(node), k)
    got = memo.get(key)
    if got is not None:
        return got
    kind = type(node)
    if kind is Box:
        out = Box(node.action, _approximant(node.body, k, memo, unfolded))
    elif kind is And:
        out = And(_approximant(node.left, k, memo, unfolded), _approximant(node.right, k, memo, unfolded))
    elif kind is Min:
        unfolded.append(substitute(node.body, node.var, node))
        out = _approximant(unfolded[-1], k - 1, memo, unfolded)
    elif kind is Tt or kind is Ff or kind is Acc:
        out = node
    else:
        raise FormulaError(f"approximant hit unexpected node {node!r}")
    memo[key] = out
    return out


def sim_free_vars(sim: SimFormula) -> frozenset[str]:
    return frozenset().union(*(b.free for b in sim.bodies)) - set(sim.variables)


def bekic_eliminate(sim: SimFormula) -> Formula:
    """Collapse a simultaneous least fixpoint to a single-variable formula.

    Only the equations the projected variable reaches through free
    variables can enter the result, so the others are dropped first.  The
    projected variable is moved to the front, then the remaining variables
    are eliminated last-first: close the final equation with its own min
    binder and substitute it into every earlier body it is free in.  The
    result is semantically the requested projection.  An elimination that
    would build more than MAX_ELIMINATION_NODES nodes raises
    rechml.testterms.CapExceeded.
    """
    leftover = sim_free_vars(sim)
    if leftover:
        names = ", ".join(sorted(leftover))
        raise FormulaError(f"open simultaneous formula; free: {names}")
    body_of = dict(zip(sim.variables, sim.bodies))
    root = sim.variables[sim.index]
    variables, reached = [root], {root}
    for x in variables:  # grows as it goes: a breadth-first search
        variables += body_of[x].free - reached
        reached |= body_of[x].free
    variables[1:] = [x for x in sim.variables if x in reached and x != root]
    bodies = [body_of[x] for x in variables]
    # the positions of the bodies each variable is free in; substituting a
    # closed binder brings its free variables into the bodies it enters.
    # An entry may point at a body eliminated since, which is skipped.
    users: dict[str, set[int]] = {x: set() for x in variables}
    for i, b in enumerate(bodies):
        for v in b.free:
            users[v].add(i)
    built = 0
    while len(variables) > 1:
        x = variables.pop()
        closed = Min(x, bodies.pop())
        for i in users.pop(x):
            if i < len(bodies):
                memo = {}
                bodies[i] = _substitute_many(bodies[i], {x: closed}, memo, MAX_ELIMINATION_NODES - built)
                built += len(memo)
                for v in closed.free:
                    users[v].add(i)
    return Min(variables[0], bodies[0])
