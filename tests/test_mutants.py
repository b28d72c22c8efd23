"""The harness kills mutants of the transition relation, the evaluator
and the experiment.

Each mutant is applied by monkeypatching one function, and the named
checks of verify_theorems at the default TrialConfig must each fail.  A
mutant that breaks monotonicity makes Kleene iteration cycle; the bounded
fixpoint loops turn that into a failed trial, so every run returns.
"""

import pytest

from rechml import experiments, semantics
from rechml import formulas as fm
from rechml.generators import TrialConfig
from rechml.harness import verify_theorems
from rechml.lts import TAU, Lts, _image, visible

AGREEMENT = ("must_formula_agreement", "must_test_agreement",
             "may_formula_agreement", "may_test_agreement")


def tau_pre_one_step(monkeypatch):
    # pre(tau, mask) adds the strong tau-predecessors of the mask instead of
    # its whole tau-predecessor closure
    pre = Lts.pre

    def one_step(self, act, mask):
        if act.kind == "tau" and self._tau:  # a system without tau moves has no tau rows
            return mask | _image(self._back_tau, mask)
        return pre(self, act, mask)

    monkeypatch.setattr(Lts, "pre", one_step)


def divergence_from_self_loops(monkeypatch):
    # a state diverges only when it has a tau self-loop
    build = Lts._build

    def self_loops_only(self, *args):
        build(self, *args)
        self.divergent_mask = sum(1 << i for i, row in enumerate(self.strong_row(TAU)) if i in row)

    monkeypatch.setattr(Lts, "_build", self_loops_only)


def product_without_test_taus(monkeypatch):
    # the experiment never moves the test on its own taus
    product = experiments._product

    def without_test_taus(proc, test):
        kept = [t for t in test._triples if test._actions[t[1]] != TAU]
        stripped = Lts._from_triples(test._index, test._actions, kept, test.alphabet, test.name)
        return product(proc, stripped)

    monkeypatch.setattr(experiments, "_product", without_test_taus)


def acc_ignores_divergence(monkeypatch):
    # Acc A holds at divergent states whose tau-derivatives can all do A
    def without_convergence(self, actions):
        lts = self.lts
        can_some = 0
        for a in sorted(actions):
            can_some |= lts.pre(visible(a), lts.full_mask)
        return lts.full_mask & ~lts.pre(TAU, lts.full_mask & ~can_some)

    monkeypatch.setattr(semantics._Evaluator, "_acc", without_convergence)


def shrink_never_rechecks(monkeypatch):
    # when a modality's input drops fewer states than it keeps, every
    # suspect stays in its pre-image: the update keeps the old one
    update = semantics._Evaluator._pre

    def keep_suspects(self, node, act, mask):
        last = self.last_pre.get(id(node))
        out = update(self, node, act, mask)
        if last is not None:
            old, kept = last
            if not mask & ~old and (old & ~mask).bit_count() < mask.bit_count():
                out = kept
                self.last_pre[id(node)] = (mask, out)
        return out

    monkeypatch.setattr(semantics._Evaluator, "_pre", keep_suspects)


def box_ignores_divergence(monkeypatch):
    # [a]phi holds at divergent states whose weak a-derivatives satisfy phi
    evaluate = semantics._Evaluator.eval

    def without_convergence(self, node, env):
        if not isinstance(node, fm.Box):
            return evaluate(self, node, env)
        q = self.lts.full_mask & ~self.eval(node.body, env)
        return self.lts.full_mask & ~self.lts.pre(node.action, q)

    monkeypatch.setattr(semantics._Evaluator, "eval", without_convergence)


def must_passes_at_a_deadlock(monkeypatch):
    # a configuration with no moves passes when must is asked of it
    fails = experiments.Experiment._fails

    def deadlock_passes(self, key):
        return bool(self._moves_of(key)) and fails(self, key)

    monkeypatch.setattr(experiments.Experiment, "_fails", deadlock_passes)


def stale_warm_start(monkeypatch):
    # a binder evaluated before returns its old fixpoint whatever the
    # environment is now
    fixpoint = semantics._Evaluator._fixpoint

    def resume_blindly(self, node, env, fv):
        prev = self.resume.get(id(node))
        return fixpoint(self, node, env, fv) if prev is None else prev[1]

    monkeypatch.setattr(semantics._Evaluator, "_fixpoint", resume_blindly)


def can_set_ignores_action(monkeypatch):
    # the full-mask memo of pre answers every visible action with the first
    # can-set it holds
    pre = Lts.pre

    def first_can_set(self, act, mask):
        if act.kind == "visible" and mask == self.full_mask and self._can:
            return next(iter(self._can.values()))
        return pre(self, act, mask)

    monkeypatch.setattr(Lts, "pre", first_can_set)


@pytest.mark.parametrize("mutate, killed", [
    (tau_pre_one_step, ("must_formula_agreement", "must_test_agreement")),
    (divergence_from_self_loops, ("must_formula_agreement", "must_test_agreement", "unfold_law")),
    (product_without_test_taus, AGREEMENT + ("unfold_law",)),
    (acc_ignores_divergence, ("must_formula_agreement", "divergence_collapse", "acc_equivalence")),
    (shrink_never_rechecks, ("must_formula_agreement", "bekic_equivalence", "fixpoint_unfolding")),
    (box_ignores_divergence, ("must_formula_agreement", "must_test_agreement", "divergence_collapse",
                              "open_min_not_full", "acc_equivalence", "tt_grammar_semantic")),
    (must_passes_at_a_deadlock, ("must_formula_agreement", "must_test_agreement", "unfold_law",
                                 "must_implies_may")),
    (stale_warm_start, ("must_formula_agreement", "bekic_equivalence", "fixpoint_unfolding")),
    (can_set_ignores_action, AGREEMENT + ("bekic_equivalence", "fixpoint_unfolding")),
])
def test_mutant_is_killed(monkeypatch, mutate, killed):
    mutate(monkeypatch)
    report = verify_theorems(TrialConfig(), only=set(killed))
    failures = {check.name: check.failures for check in report.checks}
    assert sorted(failures) == sorted(killed)
    assert all(failures.values()), failures
