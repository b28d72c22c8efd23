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

Both pretty-printers emit text the corresponding parser reads back to an
equal term.
"""

import re
from functools import cache

from . import formulas as fm
from . import testterms as tm
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


def _shared_nodes(formula) -> set[int]:
    """The ids of the nodes that have more than one parent in the graph of
    subformula objects, found by one walk over its distinct nodes."""
    seen = {id(formula)}
    shared = set()
    stack = [formula]
    while stack:
        for child in stack.pop().children():
            if id(child) in seen:
                shared.add(id(child))
            else:
                seen.add(id(child))
                stack.append(child)
    return shared


def format_formula(formula) -> str:
    # Elimination shares subformula objects, so the printed tree can be far
    # larger than the graph.  The text of a shared node is built once per
    # (level, tail) and reused; the root keeps every node alive, so the ids
    # are stable.  Unshared nodes are not kept: each would hold its whole
    # subtree's text, quadratic in the depth.
    return _formula_text(formula, 0, True, _shared_nodes(formula), {})


def _formula_text(node, level, tail, shared, memo):
    """The text of node at a precedence level (0 disjunction, 1 conjunction,
    2 modalities, 3 atoms); a binder's body runs to the end of the enclosing
    expression, so a binder prints bare only in tail position."""
    key = (id(node), level, tail) if id(node) in shared else None
    if key is not None:
        text = memo.get(key)
        if text is not None:
            return text
    kind = type(node)
    if kind is fm.Box:
        text = f"[{node.action}]{_formula_text(node.body, 2, tail, shared, memo)}"
    elif kind is fm.Dia:
        text = f"<{node.action}>{_formula_text(node.body, 2, tail, shared, memo)}"
    elif kind is fm.Var:
        text = node.name
    elif kind is fm.And:
        text = (f"{_formula_text(node.left, 1, False, shared, memo)} /\\ "
                f"{_formula_text(node.right, 2, tail, shared, memo)}")
        if level > 1:
            text = f"({text})"
    elif kind is fm.Or:
        text = (f"{_formula_text(node.left, 0, False, shared, memo)} \\/ "
                f"{_formula_text(node.right, 1, tail, shared, memo)}")
        if level > 0:
            text = f"({text})"
    elif kind is fm.Min or kind is fm.Max:
        word = "min" if kind is fm.Min else "max"
        text = f"{word} {node.var}. {_formula_text(node.body, 0, True, shared, memo)}"
        if not tail:
            text = f"({text})"
    elif kind is fm.Acc:
        text = "Acc{" + ",".join(sorted(node.actions)) + "}"
    elif kind is fm.Tt:
        text = "tt"
    elif kind is fm.Ff:
        text = "ff"
    else:
        raise ValueError(f"cannot format {node!r}")
    if key is not None:
        memo[key] = text
    return text


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


def format_test(term) -> str:
    # precedence levels: 0 sum, 1 prefix; a prefix is never parenthesised,
    # and mu prints bare only in tail position, like the formula binders.
    # One walk with its own stack, so a term of any depth prints (the
    # frontier sample of explore's cap prints terms nobody parsed); a str
    # on the stack is text that follows a subterm.
    out = []
    stack: list = [(term, 0, True)]
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
            continue
        node, level, tail = item
        kind = type(node)
        if kind is tm.Prefix:
            out.append(f"{node.action}.")
            stack.append((node.body, 1, tail))
        elif kind is tm.Sum:
            if level:
                out.append("(")
                stack.append(")")
            stack.append((node.right, 1, tail))
            stack.append(" + ")
            stack.append((node.left, 0, False))
        elif kind is tm.Var:
            out.append(node.name)
        elif kind is tm.Success:
            out.append("w.0")
        elif kind is tm.Nil:
            out.append("0")
        elif kind is tm.Mu:
            if not tail:
                out.append("(")
                stack.append(")")
            out.append(f"mu {node.var}. ")
            stack.append((node.body, 0, True))
        else:
            raise ValueError(f"cannot format {node!r}")
    return "".join(out)


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
