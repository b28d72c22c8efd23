"""Finite labelled transition systems.

States are interned to dense integer indices at construction time and sets
of states are manipulated as integer bit masks keyed by that order.  Every
derived relation comes from two mask primitives, the image of a mask under
a row of masks and its reachability closure.  Construction keeps the strong
successor rows of each action and finds divergence by peeling: a state
converges once all its tau successors have, counted down per state, so no
tau closure is built.  The predecessor rows of tau are transposed from
its successor rows at construction, those of a visible action when pre
first needs them; pre is a backward search over them, and the weak
derivatives of a single state are a forward search over the successor
rows.  That cache only memoises a function of the transitions, so an Lts
is still observably immutable and safe to share.
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


def _transpose(rows: list[int]) -> list[int]:
    """The predecessor masks of every state, from its successor masks."""
    out = [0] * len(rows)
    for i, row in enumerate(rows):
        while row:
            low = row & -row
            out[low.bit_length() - 1] |= 1 << i
            row ^= low
    return out


def _reach(rows: list[int], mask: int, stop: int = 0) -> int:
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
        self._tau = self._strong.get(TAU) or [0] * n
        self._back_tau = _transpose(self._tau)
        # visible action name -> its transposed rows, built by pre
        self._back: dict[str, list[int]] = {}
        self._omega_mask = sum(1 << i for i, r in enumerate(self._strong.get(OMEGA, ())) if r)

        # Peel convergent states: a state converges once all its tau
        # successors have (a tau self-loop is never peeled).
        left = [row.bit_count() for row in self._tau]
        peeled = [i for i, k in enumerate(left) if not k]
        converging = 0
        while peeled:
            j = peeled.pop()
            converging |= 1 << j
            for i in self.iter_mask(self._back_tau[j]):
                left[i] -= 1
                if not left[i]:
                    peeled.append(i)
        self._divergent = self.full_mask & ~converging

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

    def pre(self, act: Action, mask: int) -> int:
        """States with some weak act-derivative in the mask, by a backward
        search: the tau-predecessor closure of the mask, then for a visible
        action its act-predecessors and their tau-predecessor closure.  The
        predecessor rows of a visible action are transposed from its
        successor rows on first use."""
        if act.kind == "tau":
            return _reach(self._back_tau, mask)
        if act.kind == "omega":
            raise LtsError("omega has no weak derivatives")
        back = self._back.get(act.name)
        if back is None:
            back = self._back[act.name] = _transpose(self._strong.get(act) or [0] * len(self.states))
        return _reach(self._back_tau, _image(back, _reach(self._back_tau, mask)))

    def _post(self, act: Action, i: int, stop: int = 0) -> int:
        """Weak act-derivatives of state i, by a forward search: its tau
        closure, then for a visible action one act step and the tau closure
        of that.  The last closure ends early once it meets stop."""
        if act.kind == "omega":
            raise LtsError("omega has no weak derivatives")
        if act.kind == "tau":
            return _reach(self._tau, 1 << i, stop)
        strong = self._strong.get(act)
        if strong is None:
            return 0
        return _reach(self._tau, _image(strong, _reach(self._tau, 1 << i)), stop)

    def reaches(self, act: Action, i: int, mask: int) -> bool:
        """Whether state i has some weak act-derivative in the mask."""
        return bool(self._post(act, i, mask) & mask)

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
        return frozenset(self.names_of(self._post(TAU, self.state_index(state))))

    def weak_derivatives(self, state: str, act: Action) -> frozenset[str]:
        """Weak derivatives: tau closure for tau, closure-step-closure for a
        visible action.  The action must be tau or belong to the alphabet."""
        i = self.state_index(state)
        if act.kind == "visible" and act.name not in self.alphabet:
            raise LtsError(f"unknown action {act.name!r}")
        return frozenset(self.names_of(self._post(act, i)))

    def converges(self, state: str) -> bool:
        """True when no infinite tau run starts at the state."""
        return not self._divergent & (1 << self.state_index(state))

    def outgoing(self, state: str):
        """Transitions leaving the state, in construction order."""
        return list(self._outgoing.get(state, ()))

    def __repr__(self):
        return (f"Lts({self.name!r}, {len(self.states)} states, "
                f"{len(self.transitions)} transitions)")
