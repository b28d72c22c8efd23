"""Seeded random generation of systems, formulas and tests.

Randomness is derived per trial by hashing the master seed together with a
path of labels, so any trial can be regenerated in isolation and the
results never depend on process hash randomization or trial order.

Every integer is drawn by one helper, _below(rng, n), over
rng.getrandbits: it is CPython's own _randbelow_with_getrandbits (draw
n.bit_length() bits, again while the draw is n or more), which
random.Random uses for randrange(n), randint(a, b) (a + a draw below
b - a + 1) and choice(seq) (seq at a draw below len(seq)) on Python 3.10
to 3.13.  So the helper consumes the same bits and returns the same
numbers as those methods, without their argument checks and layers of
calls; floats still come from rng.random().  The frozen stream digests
of tests/test_generators.py pin every draw.  Letters and actions are
read from shared module tables, not from lists built per call.
"""

import random

from . import formulas as fm
from . import testterms as tm
from .lts import TAU, Lts, visible

_LETTERS = "abcdefghijklmnopqrstuvxyz"  # no w: reserved for success


class TrialConfig(fm.Record):
    """Knobs for the randomized checks, a record whose field table gives
    the options of rechml verify and the settings of its report.

    trials drives the representation theorems; property_trials the
    algebraic properties (fixpoints, approximants, equivalences).
    divergence_bias is the chance a generated system gets an extra tau
    self-loop; tau_density the chance a generated transition or modality
    is silent.
    """

    _fields = {"seed": 0, "trials": 500, "property_trials": 200, "max_states": 8,
               "alphabet_size": 3, "max_formula_depth": 5, "max_test_depth": 5,
               "max_sim_vars": 4, "tau_density": 0.3, "divergence_bias": 0.5}

    def __post_init__(self):
        if not 1 <= self.alphabet_size <= len(_LETTERS):
            raise ValueError("alphabet_size out of range")
        if self.max_states < 1:
            raise ValueError("max_states must be positive")
        if self.max_sim_vars < 1:
            raise ValueError("max_sim_vars must be positive")
        for name in ("trials", "property_trials", "max_formula_depth", "max_test_depth"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        for name in ("tau_density", "divergence_bias"):
            if not 0 <= getattr(self, name) <= 1:
                raise ValueError(f"{name} must lie in [0, 1]")

    def alphabet(self) -> list[str]:
        return list(_LETTERS[: self.alphabet_size])


def spawn_rng(seed: int, *path) -> random.Random:
    """Independent generator for (seed, path), stable across processes."""
    import hashlib  # loaded on first use: most processes never draw

    key = ":".join([str(seed), *map(str, path)])
    digest = hashlib.sha256(key.encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _below(rng: random.Random, n: int) -> int:
    """A draw from range(n), n >= 1, exactly as rng.randrange(n) makes it:
    CPython's _randbelow_with_getrandbits, a draw of n.bit_length() bits
    repeated while it is n or more (so n = 1 still draws one bit)."""
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


# action slot 0 is tau, slot k the k-th letter
_ACTIONS = (TAU, *map(visible, _LETTERS))


def generate_lts(cfg: TrialConfig, rng: random.Random, name: str = "g") -> Lts:
    """A random system over the configured alphabet.  All alphabet letters
    are declared even when unused, so formulas over the same configuration
    can be interpreted directly."""
    size, tau_density = cfg.alphabet_size, cfg.tau_density
    n = 1 + _below(rng, cfg.max_states)
    triples = []
    for i in range(n):
        for _ in range(_below(rng, 4)):  # 0 to 3 moves
            k = 0 if rng.random() < tau_density else 1 + _below(rng, size)
            triples.append((i, k, _below(rng, n)))
    if rng.random() < cfg.divergence_bias:
        looper = _below(rng, n)
        triples.append((looper, 0, looper))
    index = {f"s{i}": i for i in range(n)}
    return Lts._from_triples(index, _ACTIONS[: size + 1], triples, _LETTERS[:size], name)


def _action(cfg, rng):
    if rng.random() < cfg.tau_density:
        return TAU
    return _ACTIONS[1 + _below(rng, cfg.alphabet_size)]


def _acc_set(cfg, rng) -> frozenset[str]:
    return frozenset([a for a in _LETTERS[: cfg.alphabet_size] if rng.random() < 0.5])


# the node kinds each fragment draws from; "leaf" stands for every leaf
_KINDS = {
    "may": ("dia", "or", "min", "leaf"),
    "must": ("box", "and", "min", "leaf"),
    "full": ("dia", "box", "or", "and", "min", "max", "acc", "leaf"),
}


def generate_formula(cfg: TrialConfig, rng: random.Random, fragment: str = "full",
                     depth: int | None = None, scope: tuple[str, ...] = ()):
    """A closed random formula in the given fragment ("may", "must" or
    "full").  scope lists variables allowed free, for recursive use."""
    if depth is None:
        depth = cfg.max_formula_depth
    # the leaves' Acc set and variable are drawn whatever node is built
    acc = _acc_set(cfg, rng) if fragment in ("must", "full") else None
    scoped = scope[_below(rng, len(scope))] if scope else None
    if depth > 0:
        kinds = _KINDS[fragment]
        kind = kinds[_below(rng, len(kinds))]
        if kind == "dia":
            return fm.Dia(_action(cfg, rng), generate_formula(cfg, rng, fragment, depth - 1, scope))
        if kind == "box":
            return fm.Box(_action(cfg, rng), generate_formula(cfg, rng, fragment, depth - 1, scope))
        if kind == "or" or kind == "and":
            left = generate_formula(cfg, rng, fragment, depth - 1, scope)
            right = generate_formula(cfg, rng, fragment, depth - 1, scope)
            return fm.Or(left, right) if kind == "or" else fm.And(left, right)
        if kind == "min" or kind == "max":
            var = f"X{len(scope)}"
            body = generate_formula(cfg, rng, fragment, depth - 1, scope + (var,))
            return fm.Min(var, body) if kind == "min" else fm.Max(var, body)
        if kind == "acc":
            return fm.Acc(_acc_set(cfg, rng))
    # one pick among tt, ff, then Acc and the variable when drawn
    k = _below(rng, 2 + (acc is not None) + (scoped is not None))
    if k == 0:
        return fm.Tt()
    if k == 1:
        return fm.Ff()
    return fm.Acc(acc) if k == 2 and acc is not None else fm.Var(scoped)


_TEST_KINDS = ("prefix", "prefix", "sum", "mu", "leaf")


def generate_test(cfg: TrialConfig, rng: random.Random,
                  depth: int | None = None, scope: tuple[str, ...] = ()):
    """A closed random test term."""
    if depth is None:
        depth = cfg.max_test_depth
    # the leaf variable is drawn whatever node is built
    scoped = scope[_below(rng, len(scope))] if scope else None
    if depth > 0:
        kind = _TEST_KINDS[_below(rng, 5)]
        if kind == "prefix":
            return tm.Prefix(_action(cfg, rng), generate_test(cfg, rng, depth - 1, scope))
        if kind == "sum":
            left = generate_test(cfg, rng, depth - 1, scope)
            return tm.Sum(left, generate_test(cfg, rng, depth - 1, scope))
        if kind == "mu":
            var = f"X{len(scope)}"
            return tm.Mu(var, generate_test(cfg, rng, depth - 1, scope + (var,)))
    # one pick among nil, success, then the variable when drawn
    k = _below(rng, 2 + (scoped is not None))
    if k == 0:
        return tm.Nil()
    return tm.Success() if k == 1 else tm.Var(scoped)


def generate_sim_system(cfg: TrialConfig, rng: random.Random) -> fm.SimFormula:
    """A closed random simultaneous least fixpoint with up to max_sim_vars
    equations, bodies drawn from the full logic over those variables."""
    n = 1 + _below(rng, cfg.max_sim_vars)
    variables = tuple(f"Z{i}" for i in range(n))
    depth = max(2, cfg.max_formula_depth - 2)
    bodies = tuple(
        generate_formula(cfg, rng, "full", depth, variables) for _ in range(n)
    )
    return fm.SimFormula(variables, bodies, _below(rng, n))
