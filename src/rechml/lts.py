"""Finite labelled transition systems.

States are interned to dense integer indices.  The transition relation is
kept once: for each action, the strong successors of every state as a
tuple of target indices in index order, so memory is linear in the
transitions.  Sets of states are integer bit masks keyed by the state
order.  Every Lts comes from one build step fed by interned states and
(i, k, j) index triples over a table of distinct actions; the public
constructor interns its arguments into them.  The step fills the
successor lists, dropping repeated triples, and finds divergence by
peeling: a state converges once all its tau successors have, counted
down per state, so no tau closure is built.  The named transitions and
outgoing lists are built from the triples on first read, the predecessor
lists of a visible action when pre first needs them.  pre is a backward
search over predecessor lists, and reaches (does one state have a weak
derivative in a mask) a forward search over the successor lists.  Those
caches only memoise functions of the transitions, and nothing handed out
can be mutated, so an Lts is observably immutable and safe to share.
"""

from dataclasses import dataclass
from functools import cache, cached_property


class LtsError(Exception):
    """Raised for malformed systems, unknown states or unknown actions."""


@dataclass(frozen=True)
class Action:
    """A transition label: the silent action, a visible action or omega.

    kind is one of "tau", "visible" or "omega"; name is empty except for
    visible actions.  Actions compare equal by kind and name; they have no
    order.
    """

    kind: str
    name: str = ""

    def __post_init__(self):
        if self.kind not in ("tau", "visible", "omega"):
            raise LtsError(f"unknown action kind {self.kind!r}")
        if self.kind == "visible":
            if not self.name:
                raise LtsError("visible action needs a name")
            if self.name in ("tau", "omega", "w"):
                raise LtsError(f"action name {self.name!r} is reserved")
        elif self.name:
            raise LtsError(f"{self.kind} carries no name")

    def __str__(self):
        return self.name if self.kind == "visible" else self.kind


TAU = Action("tau")
OMEGA = Action("omega")


@cache
def visible(name: str) -> Action:
    """The visible action called name.  Actions are frozen, so every call
    with one name returns the same instance, validated once."""
    return Action("visible", name)


def _image(rows, mask: int) -> int:
    """The mask of the states listed in rows[i] over the bits i of mask."""
    out = 0
    while mask:
        low = mask & -mask
        for j in rows[low.bit_length() - 1]:
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
    """The states reachable from mask in zero or more row steps; each
    reached state is expanded once.  The search ends early, with only part
    of the answer, once it has reached a state in stop."""
    seen = frontier = mask
    while frontier and not frontier & stop:
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
    :param name: a label used when serializing.
    """

    def __init__(self, states=(), transitions=(), alphabet=(), name="lts"):
        order: list[str] = []
        index: dict[str, int] = {}

        def intern(state):
            if not isinstance(state, str) or not state:
                raise LtsError(f"bad state name {state!r}")
            i = index.get(state)
            if i is None:
                i = index[state] = len(order)
                order.append(state)
            return i

        for s in states:
            intern(s)
        slots: dict[Action, int] = {}
        triples = []
        for src, act, dst in transitions:
            if not isinstance(act, Action):
                raise LtsError(f"bad action {act!r}")
            triples.append((intern(src), slots.setdefault(act, len(slots)), intern(dst)))
        self._build(order, index, list(slots), triples, alphabet, name)

    @classmethod
    def _from_triples(cls, states, index, actions, triples, alphabet=(), name="lts"):
        """The build step: index maps each of the states to its position,
        and (i, k, j) is a move of states[i] by actions[k] to states[j]."""
        lts = cls.__new__(cls)
        lts._build(states, index, actions, triples, alphabet, name)
        return lts

    def _with(self, i: int, act: Action, j: int) -> "Lts":
        """This system plus a move of state i by act to state j."""
        actions = self._actions if act in self._actions else self._actions + [act]
        triples = self._triples + [(i, actions.index(act), j)]
        return Lts._from_triples(self.states, self._index, actions, triples, self.alphabet, self.name)

    def _build(self, states, index, actions, triples, alphabet, name):
        self.name = name
        self.states: tuple[str, ...] = tuple(states)
        self._index = index
        n = len(states)
        # sorted: targets come in index order, a repeated triple right after
        # its first copy; a state with no moves keeps the shared ()
        rows: list[list | None] = [None] * len(actions)
        for i, k, j in sorted(triples):
            row = rows[k]
            if row is None:
                row = rows[k] = [()] * n
            got = row[i]
            if not got:
                row[i] = [j]
            elif got[-1] != j:
                got.append(j)
        self._actions = actions
        self._triples = triples
        # via a list: tuple() of a map over-allocates and shrinks, churn that raises peak RSS
        self._strong: dict[Action, tuple[tuple[int, ...], ...]] = {
            actions[k]: tuple([*map(tuple, row)]) for k, row in enumerate(rows) if row is not None}
        names = {a.name for a in self._strong if a.kind == "visible"}
        names.update(alphabet)
        self.alphabet: tuple[str, ...] = tuple(sorted(names))

        self.full_mask: int = (1 << n) - 1
        self._tau = self.strong_row(TAU)
        self._back_tau = _transpose(self._tau)
        # visible action name -> its predecessor lists, built by pre
        self._back: dict[str, list] = {}
        self._omega_mask = sum(1 << i for i, r in enumerate(self._strong.get(OMEGA, ())) if r)

        # Peel convergent states: a state converges once all its tau
        # successors have (a tau self-loop is never peeled).
        left = list(map(len, self._tau))
        peeled = [i for i, k in enumerate(left) if not k]
        converging = 0
        while peeled:
            j = peeled.pop()
            converging |= 1 << j
            for i in self._back_tau[j]:
                left[i] -= 1
                if not left[i]:
                    peeled.append(i)
        self._divergent = self.full_mask & ~converging

    @cached_property
    def transitions(self) -> tuple[tuple[str, Action, str], ...]:
        """(source, Action, target) triples, deduped, in construction order."""
        states, actions = self.states, self._actions
        return tuple((states[i], actions[k], states[j]) for i, k, j in dict.fromkeys(self._triples))

    @cached_property
    def _outgoing(self) -> dict[str, list[tuple[str, Action, str]]]:
        out: dict[str, list[tuple[str, Action, str]]] = {}
        for triple in self.transitions:
            out.setdefault(triple[0], []).append(triple)
        return out

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

    def iter_mask(self, mask: int):
        while mask:
            i = (mask & -mask).bit_length() - 1
            mask &= mask - 1
            yield i

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
        successor lists on first use."""
        if act.kind == "tau":
            return _reach(self._back_tau, mask)
        if act.kind == "omega":
            raise LtsError("omega has no weak derivatives")
        back = self._back.get(act.name)
        if back is None:
            back = self._back[act.name] = _transpose(self.strong_row(act))
        return _reach(self._back_tau, _image(back, _reach(self._back_tau, mask)))

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

    @property
    def divergent_mask(self) -> int:
        return self._divergent

    @property
    def omega_mask(self) -> int:
        """States with an outgoing omega transition (success states of a
        test system)."""
        return self._omega_mask

    @property
    def has_omega(self) -> bool:
        return self._omega_mask != 0

    # -- name-level queries ------------------------------------------------

    def converges(self, state: str) -> bool:
        """True when no infinite tau run starts at the state."""
        return not self._divergent & (1 << self.state_index(state))

    def outgoing(self, state: str):
        """Transitions leaving the state, in construction order."""
        return list(self._outgoing.get(state, ()))

    def __repr__(self):
        return (f"Lts({self.name!r}, {len(self.states)} states, "
                f"{len(self.transitions)} transitions)")
