"""Interpretation of formulas over a finite labelled transition system.

State sets are integer bit masks in the Lts state order.  Modalities are
weak: diamond asks for some weak derivative in the body's denotation, box
additionally demands convergence (a divergent state satisfies no box, even
vacuously).  Acc A holds at convergent states all of whose tau-reachable
states can weakly perform some action in A.

Fixpoints are computed by Kleene iteration on the finite powerset lattice,
min from the empty set and max from the full set.  Because the logic has
no negation every construct is monotone in the valuation, which allows a
warm restart: when a binder is re-evaluated under an environment that has
only grown (the usual case when fixpoints are nested to one side), the
previous fixpoint is a sound starting point below the new one.  When the
environments are not comparable the iteration falls back to a cold start,
so the optimization never changes the computed set.
"""

from dataclasses import dataclass

from .formulas import (
    Acc,
    And,
    Box,
    Dia,
    Ff,
    Formula,
    FormulaError,
    Max,
    Min,
    Or,
    SimFormula,
    Tt,
    Var,
    free_var_map,
    sim_free_vars,
)
from .lts import TAU, Lts, visible


@dataclass
class EvalStats:
    """Fixpoint iteration counters, accumulated across calls that share the
    instance."""

    fixpoint_iterations: int = 0
    max_fixpoint_iterations: int = 0
    evaluations: int = 0

    def record(self, iterations: int):
        self.fixpoint_iterations += iterations
        if iterations > self.max_fixpoint_iterations:
            self.max_fixpoint_iterations = iterations


class _Evaluator:
    def __init__(self, lts: Lts, fmap, stats):
        self.lts = lts
        self.fmap = fmap
        self.stats = stats
        self.converging = lts.full_mask & ~lts.divergent_mask
        self.closed_cache: dict[int, int] = {}
        # binder id -> (env signature over its free vars, fixpoint found)
        self.resume: dict[int, tuple[tuple[int, ...], int]] = {}

    def eval(self, node, env) -> int:
        fv = self.fmap[id(node)]
        if not fv:
            got = self.closed_cache.get(id(node))
            if got is not None:
                return got
        if self.stats is not None:
            self.stats.evaluations += 1
        lts = self.lts
        match node:
            case Tt():
                out = lts.full_mask
            case Ff():
                out = 0
            case Var(name):
                try:
                    out = env[name]
                except KeyError:
                    raise FormulaError(f"unbound variable {name}") from None
            case Acc(actions):
                out = self._acc(actions)
            case Or(l, r):
                out = self.eval(l, env) | self.eval(r, env)
            case And(l, r):
                out = self.eval(l, env) & self.eval(r, env)
            case Dia(act, body):
                out = lts.pre(act, self.eval(body, env))
            case Box(act, body):
                p = self.eval(body, env)
                out = self.converging & ~lts.pre(act, lts.full_mask & ~p)
            case Min(_, _) | Max(_, _):
                out = self._fixpoint(node, env, fv)
            case _:
                raise FormulaError(f"cannot interpret {node!r}")
        if not fv:
            self.closed_cache[id(node)] = out
        return out

    def _acc(self, actions) -> int:
        # convergent, and no tau-reachable state is stuck outside A
        lts = self.lts
        can_some = 0
        for a in sorted(actions):
            can_some |= lts.pre(visible(a), lts.full_mask)
        return self.converging & ~lts.pre(TAU, lts.full_mask & ~can_some)

    def _fixpoint(self, node, env, fv) -> int:
        least = isinstance(node, Min)
        sig_vars = sorted(fv)
        try:
            sig = tuple(env[v] for v in sig_vars)
        except KeyError as missing:
            raise FormulaError(f"unbound variable {missing.args[0]}") from None
        prev = self.resume.get(id(node))
        if least:
            current = 0
            if prev is not None:
                psig, pval = prev
                if psig == sig:
                    return pval
                if all(s | p == s for s, p in zip(sig, psig)):
                    current = pval
        else:
            current = self.lts.full_mask
            if prev is not None:
                psig, pval = prev
                if psig == sig:
                    return pval
                if all(p | s == p for s, p in zip(sig, psig)):
                    current = pval
        inner = dict(env)
        iterations = 0
        while True:
            iterations += 1
            inner[node.var] = current
            nxt = self.eval(node.body, inner)
            if nxt == current:
                break
            current = nxt
        if self.stats is not None:
            self.stats.record(iterations)
        self.resume[id(node)] = (sig, current)
        return current


def _normalize_env(lts, env) -> dict[str, int]:
    out = {}
    if env:
        for var, value in env.items():
            out[var] = value if isinstance(value, int) else lts.mask_of(value)
    return out


def interpret(lts: Lts, formula: Formula, env=None, stats: EvalStats | None = None) -> int:
    """Denotation of the formula as a bit mask over lts state order.

    env maps free variables to masks (or iterables of state names); every
    free variable of the formula must be bound by it.
    """
    fmap = free_var_map(formula)
    return _Evaluator(lts, fmap, stats).eval(formula, _normalize_env(lts, env))


def interpret_states(lts: Lts, formula: Formula, env=None) -> frozenset[str]:
    return frozenset(lts.names_of(interpret(lts, formula, env)))


def satisfies(lts: Lts, state: str, formula: Formula, env=None) -> bool:
    return bool(interpret(lts, formula, env) & (1 << lts.state_index(state)))


def interpret_simultaneous_vector(
    lts: Lts, sim: SimFormula, env=None, stats: EvalStats | None = None
) -> tuple[int, ...]:
    """Least solution vector of a simultaneous fixpoint, by Kleene iteration
    from the all-empty vector."""
    base = _normalize_env(lts, env)
    missing = sim_free_vars(sim) - set(base)
    if missing:
        raise FormulaError(f"unbound variable {sorted(missing)[0]}")
    fmap: dict[int, frozenset[str]] = {}
    for body in sim.bodies:
        fmap.update(free_var_map(body))
    ev = _Evaluator(lts, fmap, stats)
    vector = [0] * len(sim.variables)
    iterations = 0
    while True:
        iterations += 1
        inner = dict(base)
        inner.update(zip(sim.variables, vector))
        nxt = [ev.eval(body, inner) for body in sim.bodies]
        if nxt == vector:
            break
        vector = nxt
    if stats is not None:
        stats.record(iterations)
    return tuple(vector)


def interpret_simultaneous(
    lts: Lts, sim: SimFormula, env=None, stats: EvalStats | None = None
) -> int:
    """Projection of the least solution vector onto sim.index."""
    return interpret_simultaneous_vector(lts, sim, env, stats)[sim.index]
