"""The harness kills mutants of the transition relation and the product.

Each mutant is applied by monkeypatching one function, and the named
checks of verify_theorems at the default TrialConfig must each fail.
"""

import pytest

from rechml import experiments
from rechml.generators import TrialConfig
from rechml.harness import verify_theorems
from rechml.lts import TAU, Lts, _image

AGREEMENT = ("must_formula_agreement", "must_test_agreement",
             "may_formula_agreement", "may_test_agreement")


def tau_pre_one_step(monkeypatch):
    # pre(tau, mask) adds the strong tau-predecessors of the mask instead of
    # its whole tau-predecessor closure
    pre = Lts.pre

    def one_step(self, act, mask):
        if act.kind == "tau":
            return mask | _image(self._back_tau, mask)
        return pre(self, act, mask)

    monkeypatch.setattr(Lts, "pre", one_step)


def divergence_from_self_loops(monkeypatch):
    # a state diverges only when it has a tau self-loop
    build = Lts._build

    def self_loops_only(self, *args):
        build(self, *args)
        self._divergent = sum(1 << i for i, row in enumerate(self._tau) if i in row)

    monkeypatch.setattr(Lts, "_build", self_loops_only)


def product_without_test_taus(monkeypatch):
    # the experiment never moves the test on its own taus
    product = experiments._product

    def without_test_taus(proc, test):
        kept = [t for t in test._triples if test._actions[t[1]] != TAU]
        stripped = Lts._from_triples(test.states, test._index, test._actions, kept,
                                     test.alphabet, test.name)
        return product(proc, stripped)

    monkeypatch.setattr(experiments, "_product", without_test_taus)


@pytest.mark.parametrize("mutate, killed", [
    (tau_pre_one_step, ("must_formula_agreement", "must_test_agreement")),
    (divergence_from_self_loops, ("must_formula_agreement", "must_test_agreement", "unfold_law")),
    (product_without_test_taus, AGREEMENT + ("unfold_law",)),
])
def test_mutant_is_killed(monkeypatch, mutate, killed):
    mutate(monkeypatch)
    report = verify_theorems(TrialConfig(), only=set(killed))
    failures = {check.name: check.failures for check in report.checks}
    assert sorted(failures) == sorted(killed)
    assert all(failures.values()), failures
