"""Finite labelled transition systems.

States are interned to dense integer indices at construction time and sets
of states are manipulated as integer bit masks keyed by that order.  All
derived relations (tau closure, weak derivatives, divergence) are computed
eagerly, so a constructed Lts is immutable and safe to share.
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

        self._closure = self._tau_closures()
        self._divergent = self._divergent_mask()
        self._weak: dict[Action, list[int]] = {TAU: self._closure}
        for a in self.alphabet:
            self._weak[visible(a)] = self._weak_visible(visible(a))
        omega_row = self._strong.get(OMEGA, [0] * n)
        self._omega_mask = 0
        for i in range(n):
            if omega_row[i]:
                self._omega_mask |= 1 << i

    def _tau_closures(self) -> list[int]:
        n = len(self.states)
        step = self._strong.get(TAU, [0] * n)
        closure = [(1 << i) for i in range(n)]
        changed = True
        while changed:
            changed = False
            for i in range(n):
                acc = closure[i]
                frontier = acc
                while frontier:
                    j = (frontier & -frontier).bit_length() - 1
                    frontier &= frontier - 1
                    acc |= step[j]
                if acc != closure[i]:
                    closure[i] = acc
                    changed = True
        return closure

    def _divergent_mask(self) -> int:
        # A state diverges iff it can tau-reach a state lying on a tau cycle
        # (a tau self-loop is the one-state case).
        n = len(self.states)
        step = self._strong.get(TAU, [0] * n)
        cyclic = 0
        for i in range(n):
            frontier = step[i]
            reach = 0
            while frontier:
                j = (frontier & -frontier).bit_length() - 1
                frontier &= frontier - 1
                reach |= self._closure[j]
            if reach & (1 << i):
                cyclic |= 1 << i
        mask = 0
        for i in range(n):
            if self._closure[i] & cyclic:
                mask |= 1 << i
        return mask

    def _weak_visible(self, act: Action) -> list[int]:
        n = len(self.states)
        step = self._strong.get(act, [0] * n)
        after = [0] * n  # one strong step then tau closure
        for j in range(n):
            targets = step[j]
            acc = 0
            while targets:
                k = (targets & -targets).bit_length() - 1
                targets &= targets - 1
                acc |= self._closure[k]
            after[j] = acc
        weak = [0] * n
        for i in range(n):
            sources = self._closure[i]
            acc = 0
            while sources:
                j = (sources & -sources).bit_length() - 1
                sources &= sources - 1
                acc |= after[j]
            weak[i] = acc
        return weak

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

    # -- mask-level queries (used by the interpreter) ---------------------

    def strong_mask(self, act: Action, i: int) -> int:
        row = self._strong.get(act)
        return row[i] if row else 0

    def weak_row(self, act: Action) -> list[int]:
        """Weak derivative masks for every state; all zeroes for an action
        with no transitions anywhere."""
        if act.kind == "omega":
            raise LtsError("omega has no weak derivatives")
        row = self._weak.get(act)
        if row is None:
            row = [0] * len(self.states)
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
        return [t for t in self.transitions if t[0] == state]

    def __repr__(self):
        return (f"Lts({self.name!r}, {len(self.states)} states, "
                f"{len(self.transitions)} transitions)")
