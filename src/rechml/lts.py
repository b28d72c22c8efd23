"""Finite labelled transition systems.

States are interned to dense integer indices at construction time and sets
of states are manipulated as integer bit masks keyed by that order.  Every
derived relation comes from two mask primitives, the image of a mask under
a row of successor masks and its reachability closure.  Tau closure and
divergence are computed at construction; the weak row of a visible action
is built on first use and cached.  The cache only memoises a function of
the transitions, so an Lts is still observably immutable and safe to share.
"""

from dataclasses import dataclass


class LtsError(Exception):
    """Raised for malformed systems, unknown states or unknown actions."""


_ACTION_RANK = {"tau": 0, "visible": 1, "omega": 2}


@dataclass(frozen=True)
class Action:
    """A transition label: the silent action, a visible action or omega.

    kind is one of "tau", "visible" or "omega"; name is empty except for
    visible actions.  Actions order as tau, then visible actions by name,
    then omega.
    """

    kind: str
    name: str = ""

    def __lt__(self, other):
        if not isinstance(other, Action):
            return NotImplemented
        return (_ACTION_RANK[self.kind], self.name) < (_ACTION_RANK[other.kind], other.name)

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


def visible(name: str) -> Action:
    return Action("visible", name)


def _image(rows: list[int], mask: int) -> int:
    """The union of rows[i] over the bits i of mask."""
    out = 0
    while mask:
        low = mask & -mask
        out |= rows[low.bit_length() - 1]
        mask ^= low
    return out


def _reach(rows: list[int], mask: int) -> int:
    """The states reachable from mask in zero or more row steps; each
    reached state is expanded once."""
    seen = frontier = mask
    while frontier:
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
        self.name = name
        order: list[str] = []
        index: dict[str, int] = {}

        def intern(state):
            if not isinstance(state, str) or not state:
                raise LtsError(f"bad state name {state!r}")
            if state not in index:
                index[state] = len(order)
                order.append(state)
            return index[state]

        for s in states:
            intern(s)
        triples: list[tuple[str, Action, str]] = []
        self._outgoing: dict[str, list[tuple[str, Action, str]]] = {}
        seen = set()
        for src, act, dst in transitions:
            if not isinstance(act, Action):
                raise LtsError(f"bad action {act!r}")
            intern(src)
            intern(dst)
            triple = (src, act, dst)
            if triple not in seen:
                seen.add(triple)
                triples.append(triple)
                self._outgoing.setdefault(src, []).append(triple)

        self.states: tuple[str, ...] = tuple(order)
        self._index = index
        self.transitions: tuple[tuple[str, Action, str], ...] = tuple(triples)
        names = {a.name for _, a, _ in triples if a.kind == "visible"}
        names.update(alphabet)
        self.alphabet: tuple[str, ...] = tuple(sorted(names))

        n = len(order)
        self.full_mask: int = (1 << n) - 1
        self._strong: dict[Action, list[int]] = {}
        for src, act, dst in triples:
            row = self._strong.setdefault(act, [0] * n)
            row[index[src]] |= 1 << index[dst]

        tau = self._strong.get(TAU, [0] * n)
        self._closure = [_reach(tau, 1 << i) for i in range(n)]
        # A state lies on a tau cycle iff it tau-reaches itself in one or
        # more steps (a tau self-loop is the one-state case); a state
        # diverges iff its closure meets such a state.
        cyclic = sum(1 << i for i in range(n) if _image(self._closure, tau[i]) >> i & 1)
        self._divergent = sum(1 << i for i, c in enumerate(self._closure) if c & cyclic)
        self._omega_mask = sum(1 << i for i, r in enumerate(self._strong.get(OMEGA, ())) if r)
        self._weak: dict[Action, list[int]] = {TAU: self._closure}

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

    # -- state-set queries: masks for the interpreter, index lists for the
    #    experiment product, which steps one state at a time ---------------

    def successors(self, act: Action) -> list[list[int]]:
        """Strong act-successor indices of every state, each list
        ascending; all empty for an action with no transitions anywhere."""
        row = self._strong.get(act) or [0] * len(self.states)
        return [list(self.iter_mask(mask)) for mask in row]

    def weak_row(self, act: Action) -> list[int]:
        """Weak derivative masks for every state; all zeroes for an action
        with no transitions anywhere."""
        if act.kind == "omega":
            raise LtsError("omega has no weak derivatives")
        row = self._weak.get(act)
        if row is None:
            strong = self._strong.get(act)
            if strong is None:
                return [0] * len(self.states)
            after = [_image(self._closure, r) for r in strong]
            row = self._weak[act] = [_image(after, c) for c in self._closure]
        return row

    def pre(self, act: Action, mask: int) -> int:
        """States with some weak act-derivative in the mask."""
        out = 0
        for i, targets in enumerate(self.weak_row(act)):
            if targets & mask:
                out |= 1 << i
        return out

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

    def weak_tau_closure(self, state: str) -> frozenset[str]:
        """States reachable by zero or more tau steps."""
        return frozenset(self.names_of(self._closure[self.state_index(state)]))

    def weak_derivatives(self, state: str, act: Action) -> frozenset[str]:
        """Weak derivatives: tau closure for tau, closure-step-closure for a
        visible action.  The action must be tau or belong to the alphabet."""
        i = self.state_index(state)
        if act.kind == "visible" and act.name not in self.alphabet:
            raise LtsError(f"unknown action {act.name!r}")
        return frozenset(self.names_of(self.weak_row(act)[i]))

    def converges(self, state: str) -> bool:
        """True when no infinite tau run starts at the state."""
        return not self._divergent & (1 << self.state_index(state))

    def outgoing(self, state: str):
        """Transitions leaving the state, in construction order."""
        return list(self._outgoing.get(state, ()))

    def __repr__(self):
        return (f"Lts({self.name!r}, {len(self.states)} states, "
                f"{len(self.transitions)} transitions)")
