"""Text formats: LTS files, formula syntax, test syntax.

LTS files are line based: `lts <name>`, `init <state>`, `state <name>`,
`<src> <label> <dst>`, with `#` comments, at most one lts line and one
init line.  States, labels and the variables of formulas and tests
follow the name rules of lts: a label is tau, omega, or a visible action
name.

Formulas: tt, ff, Acc{a,b}, <a>phi, [tau]phi, phi \\/ phi, phi /\\ phi,
min X. phi, max X. phi.  Disjunction binds loosest, then conjunction, then
modalities; a binder's body extends as far right as possible.

Tests: 0, w.0, a.t, tau.t, t + t, mu X. t.  Prefixing binds tighter than
sum; a recursion's body extends as far right as possible.

One printer serves both languages, with a table per language, and emits
text the language's parser reads back to an equal term.  The equations
of a simultaneous system print as `X = body` lines (format_equations).
"""

import re
from functools import cache

from . import formulas as fm
from . import testterms as tm
from .formulas import Binder, Pair, Prefixed
from .lts import _STATE_NAME, OMEGA, TAU, Action, Lts, LtsError, variable_name, visible


class ParseError(Exception):
    pass


@cache
def _token_pattern(symbols):
    """One pattern for a text over symbols: blanks, then a symbol (the first
    listed that fits), a word, or as group 2 one bad non-blank character;
    compiled on first use, as a process reads formulas or tests or neither."""
    words = "|".join(map(re.escape, symbols))
    return re.compile(rf"\s*(?:({words}|[A-Za-z_][A-Za-z0-9_]*|0)|(\S))")


def _scan(text: str, pattern) -> list[str]:
    tokens = []
    for m in pattern.finditer(text):
        tok = m[1]
        if tok is None:
            raise ParseError(f"unexpected character {m[2]!r} at offset {m.start(2)}")
        tokens.append(tok)
    return tokens


class _Tokens:
    def __init__(self, tokens):
        self.tokens = tokens
        self.at = 0

    def peek(self):
        return self.tokens[self.at] if self.at < len(self.tokens) else None

    def take(self, expected=None):
        tok = self.peek()
        if tok is None:
            raise ParseError(f"unexpected end of input (wanted {expected or 'more'})")
        if expected is not None and tok != expected:
            raise ParseError(f"expected {expected!r}, found {tok!r}")
        self.at += 1
        return tok

    def done(self):
        if self.at < len(self.tokens):
            raise ParseError(f"trailing input from {self.tokens[self.at]!r}")


# -- formulas ---------------------------------------------------------------

_FORMULA_SYMBOLS = ("\\/", "/\\", "<", ">", "[", "]", "{", "}", "(", ")", ".", ",")


def _action_token(tok, allow_tau=True, what="action name") -> Action:
    if tok == "tau" and allow_tau:
        return TAU
    try:
        return visible(tok)
    except LtsError:
        raise ParseError(f"bad {what} {tok!r}") from None


def parse_formula(text: str):
    ts = _Tokens(_scan(text, _token_pattern(_FORMULA_SYMBOLS)))
    out = _disjunction(ts)
    ts.done()
    return out


# The grammar rules are module-level functions handed the token cursor,
# one frame per nesting level, as the walks of rechml.formulas are.


def _disjunction(ts):
    left = _conjunction(ts)
    while ts.peek() == "\\/":
        ts.take()
        left = fm.Or(left, _conjunction(ts))
    return left


def _conjunction(ts):
    left = _unary(ts)
    while ts.peek() == "/\\":
        ts.take()
        left = fm.And(left, _unary(ts))
    return left


def _unary(ts):
    tok = ts.peek()
    if tok == "<" or tok == "[":
        ts.take()
        action = _action_token(ts.take())
        ts.take(">" if tok == "<" else "]")
        return (fm.Dia if tok == "<" else fm.Box)(action, _unary(ts))
    if tok in ("min", "max"):
        ts.take()
        var = variable_name(ts.take(), ParseError)
        ts.take(".")
        body = _disjunction(ts)
        return fm.Min(var, body) if tok == "min" else fm.Max(var, body)
    return _atom(ts)


def _atom(ts):
    tok = ts.take()
    if tok == "tt":
        return fm.Tt()
    if tok == "ff":
        return fm.Ff()
    if tok == "Acc":
        ts.take("{")
        names = []
        if ts.peek() != "}":
            names.append(_action_token(ts.take(), allow_tau=False).name)
            while ts.peek() == ",":
                ts.take()
                names.append(_action_token(ts.take(), allow_tau=False).name)
        ts.take("}")
        return fm.Acc(frozenset(names))
    if tok == "(":
        out = _disjunction(ts)
        ts.take(")")
        return out
    if tok[0].isupper():
        return fm.Var(variable_name(tok, ParseError))
    raise ParseError(f"unexpected token {tok!r}")


# -- tests ------------------------------------------------------------------

_TEST_SYMBOLS = ("+", ".", "(", ")")


def parse_test(text: str):
    ts = _Tokens(_scan(text, _token_pattern(_TEST_SYMBOLS)))
    out = _sum(ts)
    ts.done()
    return out


def _sum(ts):
    left = _item(ts)
    while ts.peek() == "+":
        ts.take()
        left = tm.Sum(left, _item(ts))
    return left


def _item(ts):
    if ts.peek() == "mu":
        ts.take()
        var = variable_name(ts.take(), ParseError)
        ts.take(".")
        return tm.Mu(var, _sum(ts))
    return _prefix(ts)


def _prefix(ts):
    tok = ts.take()
    if tok == "0":
        return tm.Nil()
    if tok == "w":
        ts.take(".")
        ts.take("0")
        return tm.Success()
    if tok == "(":
        out = _sum(ts)
        ts.take(")")
        return out
    if tok[0].isupper():
        return tm.Var(variable_name(tok, ParseError))
    action = _action_token(tok)
    ts.take(".")
    return tm.Prefix(action, _item(ts))


# -- printing -----------------------------------------------------------------

# The printer's table of each language, keyed by exact node class, so each
# printer refuses the other's nodes and any subclass node.  Precedence
# levels: formulas 0 disjunction, 1 conjunction, 2 modalities; tests 0
# sum, 1 prefix.  A pair is its symbol, the level above which it is
# parenthesised, and its left and right levels; a prefix is the text
# around its action and its body's level; a binder is its word; a leaf is
# its text, or the function of the node that gives it.
_FORMULA_TABLE = {
    fm.Box: ("[", "]", 2), fm.Dia: ("<", ">", 2), fm.And: (" /\\ ", 1, 1, 2), fm.Or: (" \\/ ", 0, 0, 1),
    fm.Min: "min", fm.Max: "max", fm.Tt: "tt", fm.Ff: "ff", fm.Var: lambda node: node.name,
    fm.Acc: lambda node: "Acc{" + ",".join(sorted(node.actions)) + "}",
}
_TEST_TABLE = {tm.Prefix: ("", ".", 1), tm.Sum: (" + ", 0, 0, 1), tm.Mu: "mu", tm.Success: "w.0",
               tm.Nil: "0", tm.Var: lambda node: node.name}


def _shared_nodes(term, table) -> set[int]:
    """The ids of the nodes that have more than one parent in the graph of
    subterm objects, found by one walk over its distinct nodes; the walk
    stops at a node outside the table, which the printer refuses."""
    seen = set()
    shared = set()
    stack = [term]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            shared.add(id(node))
        elif type(node) in table:
            seen.add(id(node))
            stack += node.children()
    return shared


def _format(term, table) -> str:
    # One walk with its own stack, so a term of any depth prints; a str on
    # the stack is text that follows a subterm.  A binder's body runs to
    # the end of the enclosing expression, so a binder prints bare only in
    # tail position.  Elimination shares subterm objects, so the printed
    # tree can be far larger than the graph: the text of a shared node is
    # built once per (level, tail), its end marked on the stack by a list,
    # and reused.  The root keeps every node alive, so the ids are stable.
    # Unshared nodes are not kept: each would hold its whole subtree's
    # text, quadratic in the depth.
    shared = _shared_nodes(term, table)
    memo = {}
    out = []
    stack: list = [(term, 0, True)]
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
            continue
        if type(item) is list:
            key, start = item
            memo[key] = text = "".join(out[start:])
            out[start:] = (text,)
            continue
        node, level, tail = item
        if id(node) in shared:
            key = (id(node), level, tail)
            if key in memo:
                out.append(memo[key])
                continue
            stack.append([key, len(out)])
        entry = table.get(type(node))
        if entry is None:
            raise ValueError(f"cannot format {node!r}")
        shape = node.shape
        if shape is Prefixed:
            out.append(f"{entry[0]}{node.action}{entry[1]}")
            stack.append((node.body, entry[2], tail))
        elif shape is Pair:
            symbol, loosest, left_level, right_level = entry
            if level > loosest:
                out.append("(")
                stack.append(")")
            stack += ((node.right, right_level, tail), symbol, (node.left, left_level, False))
        elif shape is Binder:
            if not tail:
                out.append("(")
                stack.append(")")
            out.append(f"{entry} {node.var}. ")
            stack.append((node.body, 0, True))
        else:
            out.append(entry if type(entry) is str else entry(node))
    return "".join(out)


def format_formula(formula) -> str:
    return _format(formula, _FORMULA_TABLE)


def format_test(term) -> str:
    return _format(term, _TEST_TABLE)


def format_equations(system) -> list[str]:
    """The equations of a simultaneous system, one `X = body` line each."""
    return [f"{v} = {format_formula(b)}" for v, b in zip(system.variables, system.bodies)]


# -- transition systems -------------------------------------------------------


def parse_lts(text: str) -> tuple[Lts, str | None]:
    """Parse the line format; returns the system and its init state (None
    when the file has no init line).  One pass interns each state name and
    each label to an index when first seen, checking it only then, and
    hands the index triples to the Lts build step.  A move line checks its
    source, then its destination, then its label, and the first faulty
    line in the file is the one reported."""
    name = init = None
    index: dict[str, int] = {}  # the states in interned order, to their positions
    slots: dict[str, int] = {}
    actions: list[Action] = []
    triples = []
    alphabet: list[str] = []
    lines = text.splitlines()
    # comments are cut off up front, and only from a text that has one;
    # an error still quotes the raw line
    bodies = [line.split("#", 1)[0] for line in lines] if "#" in text else lines
    try:
        for lineno, tokens in enumerate(map(str.split, bodies), 1):
            n = len(tokens)
            if n == 3 and tokens[0] != "alphabet":
                src, label, dst = tokens
                # a name seen before is a plain lookup; a new one is checked
                i = index.get(src)
                if i is None:
                    if not _STATE_NAME.fullmatch(src):
                        raise ParseError(f"bad state name {src!r}")
                    i = index[src] = len(index)
                j = index.get(dst)
                if j is None:
                    if not _STATE_NAME.fullmatch(dst):
                        raise ParseError(f"bad state name {dst!r}")
                    j = index[dst] = len(index)
                k = slots.get(label)
                if k is None:
                    k = slots[label] = len(actions)
                    actions.append(OMEGA if label == "omega" else _action_token(label, what="label"))
                triples.append((i, k, j))
            elif n == 2 and tokens[0] == "lts":
                if name is not None:
                    raise ParseError("a second lts line")
                name = tokens[1]
            elif n == 2 and tokens[0] in ("state", "init"):
                word, state = tokens
                if word == "init":
                    if init is not None:
                        raise ParseError("a second init line")
                    init = state
                if state not in index:
                    if not _STATE_NAME.fullmatch(state):
                        raise ParseError(f"bad state name {state!r}")
                    index[state] = len(index)
            elif n and tokens[0] == "alphabet":
                alphabet += [_action_token(letter, False, "letter").name for letter in tokens[1:]]
            elif n:
                raise ParseError(f"cannot parse {lines[lineno - 1].strip()!r}")
    except ParseError as err:
        raise ParseError(f"line {lineno}: {err}") from None
    # the lines go before the build, so the two never peak together
    del lines, bodies
    return Lts._from_triples(index, actions, triples, alphabet, name or "lts"), init


def format_lts(lts: Lts, init: str | None = None) -> str:
    """Serialize; every state is declared explicitly so that reparsing
    reproduces the interned order.  An init that is not a state of the
    system is an LtsError."""
    lines = [f"lts {lts.name}"]
    if init is not None:
        lts.state_index(init)
        lines.append(f"init {init}")
    if lts.alphabet:
        lines.append("alphabet " + " ".join(lts.alphabet))
    for state in lts.states:
        lines.append(f"state {state}")
    for src, action, dst in lts.transitions:
        lines.append(f"{src} {action} {dst}")
    return "\n".join(lines) + "\n"
