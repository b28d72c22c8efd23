"""Finite labelled transition systems.

States are interned to dense integer indices.  The transition relation is
kept once: for each action, the strong successors of every state as a
tuple of target indices in index order, so memory is linear in the
transitions.  Sets of states are integer bit masks keyed by the state
order.  Every Lts comes from one build step fed by a state index (each
name to its position, in order) and (i, k, j) index triples over a table
of distinct actions; the public constructor interns its arguments into
them.  The step does only what every reader needs: it fills the successor
lists in construction order, without a sort of all the triples (only a
state with several targets for one action has them sorted and deduped),
and in one pass over the actions the alphabet, the tau row and the
omega_mask attribute.  Everything else
is built on first read, because many systems never need it (an experiment
reads neither the tau predecessors nor divergence of its process or its
explored test):
- the tau-predecessor lists, read by pre and by the peel; a system without
  tau moves has no tau row, and pre and reaches skip its tau closures;
- divergent_mask, by peeling: a state converges once all its tau
  successors have, counted down per state, so no tau closure is built; a
  system without tau moves diverges nowhere and is not peeled;
- the named transitions, from the deduped moves;
- the predecessor lists of a visible action, when pre first needs them;
- the pre-image of the full state set under a visible action (the states
  that can weakly perform it, read by every Acc, <a>tt and [a]ff).

pre is a backward search over predecessor lists, and reaches (does one
state have a weak derivative in a mask) a forward search over the
successor lists; pre rejects a mask with bits outside the system.  Both
take pre-images one set bit of a mask at a time, at O(n) big-int work per
target, while the walked rows hold at most 32 targets, and the rest by
selectors, O(n) in all, so a one-bit delta near the top of a large mask
and the hub of a fan both stay cheap.  Those caches only memoise
functions of the transitions, and nothing handed out can be mutated, so
an Lts is observably immutable and safe to share.

Names follow the text formats, so what format_lts writes parse_lts reads
back: states are identifiers, Action owns the visible-name rule, and
variable_name the rule for the variables of formulas and tests.
"""

import re
from functools import cache, cached_property
from itertools import compress


class LtsError(Exception):
    """Raised for malformed systems, unknown states or unknown actions."""


_STATE_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_VARIABLE = re.compile(r"[A-Z][A-Za-z0-9_]*")
_VISIBLE = re.compile(r"[a-z][a-zA-Z0-9_]*")
_RESERVED = frozenset({"tau", "omega", "w", "tt", "ff", "min", "max", "mu"})


class Action:
    """A transition label: the silent action, a visible action or omega.

    kind is one of "tau", "visible" or "omega"; name is empty except for
    visible actions, where it is a lowercase-initial identifier that is no
    word of the text formats.  Actions are interned: Action(kind, name)
    validates a pair once and returns its one instance ever after, also
    from copy and pickle, so actions compare and hash by identity.  They
    are immutable and have no order.
    """

    __slots__ = ("kind", "name")

    def __new__(cls, kind, name=""):
        try:
            return _ACTIONS[kind, name]
        except (KeyError, TypeError):
            pass
        if kind not in ("tau", "visible", "omega"):
            raise LtsError(f"unknown action kind {kind!r}")
        if kind == "visible":
            if not isinstance(name, str) or not _VISIBLE.fullmatch(name):
                raise LtsError(f"bad action name {name!r}")
            if name in _RESERVED:
                raise LtsError(f"action name {name!r} is reserved")
        elif name != "":
            raise LtsError(f"{kind} carries no name")
        self = _ACTIONS[kind, name] = object.__new__(cls)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "name", name)
        return self

    def __setattr__(self, attr, value=None):
        raise AttributeError(f"cannot assign to or delete {attr!r}: actions are immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return Action, (self.kind, self.name)

    def __repr__(self):
        return f"Action(kind={self.kind!r}, name={self.name!r})"

    def __str__(self):
        return self.name if self.kind == "visible" else self.kind


_ACTIONS: dict[tuple[str, str], Action] = {}
TAU = Action("tau")
OMEGA = Action("omega")


@cache
def visible(name: str) -> Action:
    """The visible action called name, the one Action("visible", name)."""
    return Action("visible", name)


@cache
def variable_name(name: str, error) -> str:
    """name, if it is a variable of formulas, tests and their texts: an
    identifier with an uppercase first letter, other than Acc.  Any other
    name raises error.  Cached, as every variable and binder node calls it."""
    if not isinstance(name, str) or name == "Acc" or not _VARIABLE.fullmatch(name):
        raise error(f"bad variable name {name!r}")
    return name


# _image walks set bits one at a time, at O(n) big-int work per target,
# while their rows hold at most _DENSE targets in all (an empty row counts
# 1), and the rest by selectors, O(n) in all: the binary digits of the
# mask, lowest first and translated to 0/1 bytes, pick the rows, and the
# targets are marked in a byte per state and read back as one int.  The
# budget is charged as bits are walked: a switch by bit_length would make
# every one-bit delta near the top of a large mask (the Kleene rounds of
# min X. [a]X on a chain) pay the O(n) pass, an up-front int.bit_count
# costs half a one-bit step on a 100,000-state mask, and a count of set
# bits alone would walk a fan's hub at O(n) per predecessor.  Selectors
# win from about 24 set bits at 300 states and 60 at 1000.
_DENSE = 32
_SELECT = bytes.maketrans(b"01", b"\0\1")


def _image(rows, mask: int) -> int:
    """The mask of the states listed in rows[i] over the bits i of mask."""
    out = 0
    left = _DENSE
    while mask:
        low = mask & -mask
        row = rows[low.bit_length() - 1]
        left -= len(row) or 1
        if left < 0:
            # marks[j] is the binary digit of bit j, read back in reverse
            marks = bytearray(b"0") * len(rows)
            for row in compress(rows, bin(mask)[:1:-1].encode().translate(_SELECT)):
                for j in row:
                    marks[j] = 49
            return out | int(marks[::-1], 2)
        for j in row:
            out |= 1 << j
        mask ^= low
    return out


def _transpose(rows) -> list:
    """The predecessor lists of every state, from its successor lists; a
    state with no predecessors keeps the shared empty tuple."""
    out: list = [()] * len(rows)
    for i, row in enumerate(rows):
        for j in row:
            got = out[j]
            if got:
                got.append(i)
            else:
                out[j] = [i]
    return out


def _reach(rows, mask: int, stop: int = 0) -> int:
    """The states reachable from mask in zero or more row steps (none for
    rows None); each reached state is expanded once.  The search ends
    early, with only part of the answer, once it has reached a state in stop."""
    seen = frontier = mask
    while rows and frontier and not frontier & stop:
        frontier = _image(rows, frontier) & ~seen
        seen |= frontier
    return seen


class Lts:
    """An immutable finite labelled transition system.

    :param states: state names in the order they should be interned.
        States mentioned only in transitions are appended automatically.
    :param transitions: iterable of (source, Action, target) triples.
    :param alphabet: extra visible action names beyond those occurring in
        the transitions (useful when formulas range over a larger alphabet).
    :param name: a label used when serializing, one word without a #.
    """

    def __init__(self, states=(), transitions=(), alphabet=(), name="lts"):
        if not isinstance(name, str) or name.split() != [name] or "#" in name:
            raise LtsError(f"bad system name {name!r}")
        alphabet = [visible(letter).name for letter in alphabet]
        index: dict[str, int] = {}

        def intern(state):
            if not isinstance(state, str) or not _STATE_NAME.fullmatch(state):
                raise LtsError(f"bad state name {state!r}")
            i = index.get(state)
            if i is None:
                i = index[state] = len(index)
            return i

        for s in states:
            intern(s)
        slots: dict[Action, int] = {}
        triples = []
        for src, act, dst in transitions:
            if not isinstance(act, Action):
                raise LtsError(f"bad action {act!r}")
            triples.append((intern(src), slots.setdefault(act, len(slots)), intern(dst)))
        self._build(index, list(slots), triples, alphabet, name)

    @classmethod
    def _from_triples(cls, index, actions, triples, alphabet=(), name="lts"):
        """The build step: index maps each state name to its position, in
        that order, and (i, k, j) is a move of state i by actions[k] to
        state j."""
        lts = cls.__new__(cls)
        lts._build(index, actions, triples, alphabet, name)
        return lts

    def _with(self, i: int, act: Action, j: int) -> "Lts":
        """This system plus a move of state i by act to state j."""
        actions = self._actions if act in self._actions else [*self._actions, act]
        triples = self._triples + [(i, actions.index(act), j)]
        return Lts._from_triples(self._index, actions, triples, self.alphabet, self.name)

    def _build(self, index, actions, triples, alphabet, name):
        self.name = name
        self.states: tuple[str, ...] = tuple(index)
        self._index = index
        n = len(index)
        # rows are filled in construction order: a state's first target for
        # an action is a 1-tuple, and only a state with several targets for
        # one action gets a list, sorted, deduped and made a tuple below, so
        # targets end in index order without a sort of all the triples; a
        # state with no moves keeps the shared ()
        rows: list[list | None] = [None] * len(actions)
        several = []
        for i, k, j in triples:
            row = rows[k]
            if row is None:
                row = rows[k] = [()] * n
            got = row[i]
            if not got:
                row[i] = (j,)
            elif type(got) is list:
                got.append(j)
            elif got[0] != j:
                row[i] = [got[0], j]
                several.append((row, i))
        for row, i in several:
            row[i] = tuple(sorted(set(row[i])))
        self._actions = actions
        self._triples = triples
        self.full_mask: int = (1 << n) - 1
        # one pass over the actions fills the successor rows, the alphabet,
        # the tau row and the omega mask, hashing each action once
        strong: dict[Action, tuple[tuple[int, ...], ...]] = {}
        names = set(alphabet)
        tau = None
        omega = 0
        for act, row in zip(actions, rows):
            if row is None:
                continue
            row = strong[act] = tuple(row)
            kind = act.kind
            if kind == "visible":
                names.add(act.name)
            elif kind == "tau":
                tau = row
            else:
                for i, targets in enumerate(row):
                    if targets:
                        omega |= 1 << i
        self._strong = strong
        self.alphabet: tuple[str, ...] = tuple(sorted(names))
        self._tau = tau  # None without tau moves
        self.omega_mask: int = omega  # states with an omega move (a test's success states)
        # visible action name -> its predecessor lists, built by pre
        self._back: dict[str, list] = {}
        # visible action name -> pre of the full mask, memoised by pre
        self._can: dict[str, int] = {}

    @cached_property
    def _back_tau(self) -> list:
        """The tau-predecessor lists, transposed on first read."""
        return _transpose(self._tau)

    @cached_property
    def divergent_mask(self) -> int:
        """The states with an infinite tau run, found by peeling convergent
        states: a state converges once all its tau successors have (a tau
        self-loop is never peeled).  Without tau moves nothing diverges."""
        tau = self._tau
        if tau is None:
            return 0
        back = self._back_tau
        left = list(map(len, tau))
        peeled = [i for i, k in enumerate(left) if not k]
        converging = 0
        while peeled:
            j = peeled.pop()
            converging |= 1 << j
            for i in back[j]:
                left[i] -= 1
                if not left[i]:
                    peeled.append(i)
        return self.full_mask & ~converging

    def _moves(self) -> list[tuple[int, Action, int]]:
        """(i, Action, j) moves by state index, deduped, in construction order."""
        actions = self._actions
        return [(i, actions[k], j) for i, k, j in dict.fromkeys(self._triples)]

    @cached_property
    def transitions(self) -> tuple[tuple[str, Action, str], ...]:
        """(source, Action, target) triples, deduped, in construction order."""
        states = self.states
        return tuple((states[i], act, states[j]) for i, act, j in self._moves())

    # -- interning helpers ------------------------------------------------

    def state_index(self, state: str) -> int:
        try:
            return self._index[state]
        except KeyError:
            raise LtsError(f"unknown state {state!r}") from None

    def mask_of(self, states) -> int:
        mask = 0
        for s in states:
            mask |= 1 << self.state_index(s)
        return mask

    def names_of(self, mask: int) -> tuple[str, ...]:
        return tuple(s for i, s in enumerate(self.states) if mask & (1 << i))

    # -- state-set queries ------------------------------------------------

    def strong_row(self, act: Action) -> tuple[tuple[int, ...], ...]:
        """The strong act-successors of every state, as target indices in
        index order; all empty for an action with no transitions anywhere."""
        return self._strong.get(act) or ((),) * len(self.states)

    def pre(self, act: Action, mask: int) -> int:
        """States with some weak act-derivative in the mask, by a backward
        search: the tau-predecessor closure of the mask, then for a visible
        action its act-predecessors and their tau-predecessor closure.  The
        predecessor lists of a visible action are transposed from its
        successor lists on first use, and the answer for the full mask is
        memoised per action.  A mask with bits outside the system (negative,
        or above the full mask) is an LtsError."""
        if mask < 0 or mask > self.full_mask:
            raise LtsError(f"mask names states outside the system of {len(self.states)} states")
        full = mask == self.full_mask
        back_tau = self._tau and self._back_tau  # None without tau moves
        if act.kind == "tau":
            # every state is its own weak tau-derivative
            return mask if full else _reach(back_tau, mask)
        if act.kind == "omega":
            raise LtsError("omega has no weak derivatives")
        if full:
            got = self._can.get(act.name)
            if got is not None:
                return got
        back = self._back.get(act.name)
        if back is None:
            back = self._back[act.name] = _transpose(self.strong_row(act))
        out = _reach(back_tau, _image(back, _reach(back_tau, mask)))
        if full:
            self._can[act.name] = out
        return out

    def reaches(self, act: Action, i: int, mask: int) -> bool:
        """Whether state i has some weak act-derivative in the mask, by a
        forward search: its tau closure, then for a visible action one act
        step and the tau closure of that, which ends early once it meets
        the mask."""
        if act.kind == "omega":
            raise LtsError("omega has no weak derivatives")
        start = 1 << i
        if act.kind != "tau":
            start = _image(self.strong_row(act), _reach(self._tau, start))
        return bool(_reach(self._tau, start, mask) & mask)

    # -- name-level queries ------------------------------------------------

    def converges(self, state: str) -> bool:
        """True when no infinite tau run starts at the state."""
        return not self.divergent_mask & (1 << self.state_index(state))

    def __repr__(self):
        return (f"Lts({self.name!r}, {len(self.states)} states, "
                f"{len(self.transitions)} transitions)")
