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
so the optimization never changes the computed set.  On n states a
monotone body settles within n + 1 rounds, and a system of m equations
within n * m + 1, so each loop stops there and raises FormulaError: only
an evaluator that is not monotone can cycle, and it then fails instead of
hanging.

Both modalities come down to one weak pre-image, Lts.pre (a box takes it
of the complement of its body).  Between Kleene iterates the input of a
modality under a binder changes by a few states, so each open modality
keeps its last input and pre-image and is updated from the difference,
as in semi-naive evaluation: pre distributes over union, so a grown
input adds the pre-image of the added states; when the input dropped
fewer states than it kept, only the weak predecessors of the dropped
states, the suspects, can have left the pre-image, and every weak
derivative of a suspect lies in their post-image, so one pre-image of
the input cut down to that post-image tells which suspects stay.  Any
other input is recomputed in full.  Every update yields exactly the
pre-image of the new input, so the iterates and their counts are those
of plain Kleene iteration.  Closed subformulas are evaluated once per
evaluator and need no update, and Acc A, a function of the system
alone, is memoised on the Lts per action set, so every formula asked of
one system shares it.

eval dispatches on the exact type of a node, as the walks of
rechml.formulas do (its docstring says why), tested in the order of how
often each kind occurs (variables and modalities first, constants and
Acc last).  A variable, the commonest node of a fixpoint body, is
answered before that chain, right after the count of evaluations.  A
table of one method per kind would add a Python frame per nesting level
of the recursion, and so roughly halve the deepest formula that can be
interpreted.
"""

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
    Record,
    SimFormula,
    Tt,
    Var,
    sim_free_vars,
)
from .lts import TAU, Lts, LtsError, visible


class EvalStats(Record):
    """Fixpoint iteration counters, accumulated across calls that share the
    instance."""

    _fields = {"fixpoint_iterations": 0, "max_fixpoint_iterations": 0, "evaluations": 0}

    def record(self, iterations: int):
        self.fixpoint_iterations += iterations
        if iterations > self.max_fixpoint_iterations:
            self.max_fixpoint_iterations = iterations


class _Evaluator:
    def __init__(self, lts: Lts, stats):
        self.lts = lts
        self.stats = stats
        self.converging = lts.full_mask & ~lts.divergent_mask
        self.closed_cache: dict[int, int] = {}
        # binder id -> (env signature over its free vars, fixpoint found)
        self.resume: dict[int, tuple[tuple[int, ...], int]] = {}
        # open Dia or Box id -> (last mask passed to pre, its pre-image)
        self.last_pre: dict[int, tuple[int, int]] = {}

    def eval(self, node, env) -> int:
        try:
            fv = node.free
        except AttributeError:
            raise FormulaError(f"cannot interpret {node!r}") from None
        if not fv:
            got = self.closed_cache.get(id(node))
            if got is not None:
                return got
        if self.stats is not None:
            self.stats.evaluations += 1
        kind = type(node)
        if kind is Var:
            try:
                return env[node.name]
            except KeyError:
                raise FormulaError(f"unbound variable {node.name}") from None
        lts = self.lts
        if kind is Dia:
            act, p = node.action, self.eval(node.body, env)
            out = self._pre(node, act, p) if fv else lts.pre(act, p)
        elif kind is Box:
            act, q = node.action, lts.full_mask & ~self.eval(node.body, env)
            out = self.converging & ~(self._pre(node, act, q) if fv else lts.pre(act, q))
        elif kind is Or:
            out = self.eval(node.left, env) | self.eval(node.right, env)
        elif kind is And:
            out = self.eval(node.left, env) & self.eval(node.right, env)
        elif kind is Min or kind is Max:
            out = self._fixpoint(node, env, fv)
        elif kind is Tt:
            out = lts.full_mask
        elif kind is Ff:
            out = 0
        elif kind is Acc:
            out = self._acc(node.actions)
        else:
            raise FormulaError(f"cannot interpret {node!r}")
        if not fv:
            self.closed_cache[id(node)] = out
        return out

    def _pre(self, node, act, mask) -> int:
        """lts.pre(act, mask) for an open modality, updated from the node's
        previous input and output by the difference between the inputs."""
        lts = self.lts
        last = self.last_pre.get(id(node))
        if last is None:
            out = lts.pre(act, mask)
        else:
            old, out = last
            if mask == old:
                return out
            gone = old & ~mask
            if not gone:
                # pre distributes over union
                out |= lts.pre(act, mask & ~old)
            elif not mask & ~old and gone.bit_count() < mask.bit_count():
                # only predecessors of the removed states can have lost
                # their last weak derivative in the mask, and all their
                # weak derivatives lie in the post-image of the suspects
                suspects = out & lts.pre(act, gone)
                out &= ~suspects | lts.pre(act, mask & lts.post(act, suspects))
            else:
                out = lts.pre(act, mask)
        self.last_pre[id(node)] = (mask, out)
        return out

    def _acc(self, actions) -> int:
        # convergent, and no tau-reachable state is stuck outside A; memoised
        # on the system, whose transitions alone fix it
        lts = self.lts
        out = lts._acc.get(actions)
        if out is None:
            can_some = 0
            for a in sorted(actions):
                can_some |= lts.pre(visible(a), lts.full_mask)
            out = lts._acc[actions] = self.converging & ~lts.pre(TAU, lts.full_mask & ~can_some)
        return out

    def _fixpoint(self, node, env, fv) -> int:
        least = type(node) is Min
        # the signature lists the free variables in the order of the node's
        # own set, the same order every time the node is evaluated
        try:
            sig = tuple([env[v] for v in fv])
        except KeyError as missing:
            raise FormulaError(f"unbound variable {missing.args[0]}") from None
        lts = self.lts
        current = 0 if least else lts.full_mask
        prev = self.resume.get(id(node))
        if prev is not None:
            psig, pval = prev
            if psig == sig:
                return pval
            # warm start when the environment only grew (least) or only
            # shrank (greatest): the old fixpoint then lies below the new
            # least, or above the new greatest, fixpoint
            small, big = (psig, sig) if least else (sig, psig)
            for s, b in zip(small, big):
                if b | s != b:
                    break
            else:
                current = pval
        # bind the variable in env itself, restoring the shadowed entry on
        # the way out, so that nested binders share one environment
        var = node.var
        shadowed = env.get(var)
        body = node.body
        evaluate = self.eval
        # a monotone body climbs (or falls) by at least one state a round
        bound = len(lts.states) + 1
        iterations = 0
        while True:
            iterations += 1
            env[var] = current
            nxt = evaluate(body, env)
            if nxt == current:
                break
            if iterations == bound:
                raise FormulaError(f"fixpoint {var} did not settle within {bound} iterations: "
                                   "the body is not monotone")
            current = nxt
        if shadowed is None:
            del env[var]
        else:
            env[var] = shadowed
        stats = self.stats
        if stats is not None:
            # EvalStats.record, inlined: this runs once per binder evaluation
            stats.fixpoint_iterations += iterations
            if iterations > stats.max_fixpoint_iterations:
                stats.max_fixpoint_iterations = iterations
        self.resume[id(node)] = (sig, current)
        return current


def _normalize_env(lts, env) -> dict[str, int]:
    out = {}
    if env:
        for var, value in env.items():
            if not isinstance(value, int):
                value = lts.mask_of(value)
            elif value < 0 or value & ~lts.full_mask:
                # pre would index a row that does not exist
                raise LtsError(f"mask for {var} names states outside the system")
            out[var] = value
    return out


def interpret(lts: Lts, formula: Formula, env=None, stats: EvalStats | None = None) -> int:
    """Denotation of the formula as a bit mask over lts state order.

    env maps free variables to masks (or iterables of state names); every
    free variable of the formula must be bound by it.
    """
    return _Evaluator(lts, stats).eval(formula, _normalize_env(lts, env))


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
    missing = sim_free_vars(sim) - base.keys()
    if missing:
        raise FormulaError(f"unbound variable {sorted(missing)[0]}")
    ev = _Evaluator(lts, stats)
    vector = [0] * len(sim.variables)
    # a monotone system adds at least one state to one component a round
    bound = len(lts.states) * len(sim.variables) + 1
    iterations = 0
    while True:
        iterations += 1
        inner = dict(base)
        inner.update(zip(sim.variables, vector))
        nxt = [ev.eval(body, inner) for body in sim.bodies]
        if nxt == vector:
            break
        if iterations == bound:
            raise FormulaError(f"simultaneous fixpoint {', '.join(sim.variables)} did not settle "
                               f"within {bound} iterations: the bodies are not monotone")
        vector = nxt
    if stats is not None:
        stats.record(iterations)
    return tuple(vector)


def interpret_simultaneous(
    lts: Lts, sim: SimFormula, env=None, stats: EvalStats | None = None
) -> int:
    """Projection of the least solution vector onto sim.index."""
    return interpret_simultaneous_vector(lts, sim, env, stats)[sim.index]
