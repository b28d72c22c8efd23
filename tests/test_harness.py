import functools
import hashlib
import json

import pytest

from rechml import formulas as fm
from rechml import cli, harness, semantics, testterms
from rechml.experiments import must_satisfy, must_states, parallel_compose
from rechml.generators import TrialConfig
from rechml.harness import fixture_lts, report_json, report_text, verify_theorems
from rechml.lts import TAU, visible
from rechml.semantics import satisfies
from rechml.testterms import reachable_lts
from rechml.textio import parse_formula, parse_lts, parse_test

import oracles

CHECK_NAMES = [
    "must_formula_agreement",
    "must_test_agreement",
    "may_formula_agreement",
    "may_test_agreement",
    "bekic_equivalence",
    "fixpoint_prefix_property",
    "fixpoint_unfolding",
    "approximant_chain",
    "divergence_collapse",
    "open_min_not_full",
    "acc_equivalence",
    "unfold_law",
    "must_implies_may",
    "tt_grammar_semantic",
]


def small_config(**overrides):
    base = dict(seed=3, trials=30, property_trials=10)
    base.update(overrides)
    return TrialConfig(**base)


def test_all_checks_run_and_pass():
    report = verify_theorems(small_config())
    assert [c.name for c in report.checks] == CHECK_NAMES
    assert report.passed
    assert all(c.failures == 0 for c in report.checks)


def test_reports_are_reproducible_in_process():
    cfg = small_config()
    first = verify_theorems(cfg)
    second = verify_theorems(cfg)
    assert report_text(first) == report_text(second)
    assert report_json(first) == report_json(second)


def test_zero_trials_is_a_vacuous_pass():
    report = verify_theorems(TrialConfig(trials=0, property_trials=0))
    assert report.passed
    assert all(c.trials == 0 for c in report.checks)


def test_only_restricts_the_run():
    report = verify_theorems(small_config(), only={"bekic_equivalence"})
    assert [c.name for c in report.checks] == ["bekic_equivalence"]


def test_only_refuses_an_unknown_check():
    # a misspelled name ran no check and reported a pass
    with pytest.raises(ValueError, match="^no such check: bekic_equivalance, nope$"):
        verify_theorems(small_config(), only={"nope", "unfold_law", "bekic_equivalance"})


def test_test_side_trials_explore_each_test_once(monkeypatch):
    # the compiled formula and the experiment read one exploration of the
    # drawn test; explore converts its root once, whoever imported it
    calls = [0]
    convert = testterms._Table.convert

    def counted(self, term):
        calls[0] += 1
        return convert(self, term)

    monkeypatch.setattr(testterms._Table, "convert", counted)
    cfg = small_config(trials=12)
    report = verify_theorems(cfg, only={"must_test_agreement", "may_test_agreement"})
    assert report.passed
    assert calls[0] == 2 * cfg.trials


def test_fixture_has_the_awkward_shapes():
    lts = fixture_lts(TrialConfig())
    assert not lts.converges("div")
    assert not lts.converges("divfork")
    assert lts.converges("dead")
    assert oracles.outgoing(lts, "dead") == []


def test_report_text_shape():
    report = verify_theorems(small_config(trials=5, property_trials=2))
    text = report_text(report)
    lines = text.strip().splitlines()
    assert lines[0].startswith("verify seed=3 ")
    assert lines[-1].startswith("summary checks=14 ")
    assert lines[-1].endswith("verdict=pass")
    payload = json.loads(report_json(report))
    assert payload["summary"]["verdict"] == "pass"
    assert len(payload["checks"]) == 14


def test_report_digests_frozen():
    # sha256 of report_text, fixed when the harness solved one experiment
    # per process state; the all-roots solve must report the same bytes
    cfg = TrialConfig(seed=5, trials=40, property_trials=10)
    expected = {
        False: "350c3435205731be1ca0566ad67f3f7544efe6d1b353e5b7d52623997ed448a3",
        True: "a329561182a1a43bd71e53c3c40cb16c4875d6a112d0f7f52e78224d27e24581",
    }
    for mutate, digest in expected.items():
        text = report_text(verify_theorems(cfg, mutate=mutate))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, mutate


def test_report_json_digests_frozen():
    # sha256 of report_json, recorded while TrialConfig and the harness
    # records were dataclasses; the plain records must print the same bytes
    cfg = TrialConfig(seed=5, trials=40, property_trials=10)
    expected = {
        False: "e047bb345ff90ab6dac74977028761426fa7a81ffd857e77c7af5809d00801e5",
        True: "cf8d1387e7bc5d952b5f315212cd83f91d8d5172eb46a2be140f0d96d8bd3fd8",
    }
    for mutate, digest in expected.items():
        text = report_json(verify_theorems(cfg, mutate=mutate))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, mutate


def test_mutation_is_detected():
    report = verify_theorems(small_config(trials=60, property_trials=2), mutate=True)
    assert not report.passed
    broken = {c.name: c for c in report.checks}["must_formula_agreement"]
    assert broken.failures > 0
    assert broken.counterexample is not None
    # everything except the corrupted compiler still holds
    for check in report.checks:
        if check.name != "must_formula_agreement":
            assert check.failures == 0, check.name


def test_mutation_counterexample_refails_standalone():
    report = verify_theorems(small_config(trials=60, property_trials=2), mutate=True)
    ce = {c.name: c for c in report.checks}["must_formula_agreement"].counterexample
    lts, init = parse_lts(ce["lts"])
    assert init == ce["state"]
    formula = parse_formula(ce["formula"])
    test = parse_test(ce["test"])
    tlts, troot = reachable_lts(test)
    graph = parallel_compose(lts, tlts, ce["state"], troot)
    assert must_satisfy(graph) == ce["test_verdict"]
    assert satisfies(lts, ce["state"], formula) == ce["formula_verdict"]
    assert ce["test_verdict"] != ce["formula_verdict"]


def test_max_evaluated_as_min_is_detected(monkeypatch):
    # the evaluator's fixpoint loop iterates every max binder up from the
    # empty set, as if it were min: the unfolding law still holds for it,
    # but the greatest fixpoint is not the limit of the downward iterates
    fixpoint = semantics._Evaluator._fixpoint
    as_min = functools.cache(lambda node: fm.Min(node.var, node.body))

    def least_only(self, node, env, fv):
        return fixpoint(self, as_min(node) if isinstance(node, fm.Max) else node, env, fv)

    monkeypatch.setattr(semantics._Evaluator, "_fixpoint", least_only)
    report = verify_theorems(TrialConfig(), only={"fixpoint_unfolding"})
    assert not report.passed
    assert report.checks[0].counterexample["formula"].startswith("max X0.")


# the checks that name a counterexample state from a difference of masks
PICKS_A_STATE = {"must_formula_agreement", "must_test_agreement", "may_formula_agreement",
                 "may_test_agreement", "unfold_law", "must_implies_may"}


def acc_unclipped(monkeypatch):
    # Acc A as the complement of a pre-image, not clipped to the system:
    # a negative mask, which pre and the environment of an evaluation
    # reject, so every check runs
    def complement(self, actions):
        lts = self.lts
        can_some = 0
        for a in sorted(actions):
            can_some |= lts.pre(visible(a), lts.full_mask)
        return ~lts.pre(TAU, lts.full_mask & ~can_some)

    monkeypatch.setattr(semantics._Evaluator, "_acc", complement)
    return None, {"must_formula_agreement", "bekic_equivalence", "fixpoint_prefix_property",
                  "fixpoint_unfolding", "divergence_collapse", "acc_equivalence"}


def must_states_past_the_system(monkeypatch):
    # must answers also name every state index past the system
    monkeypatch.setattr(harness, "must_states",
                        lambda graph: must_states(graph) | ~graph.proc.full_mask)
    return PICKS_A_STATE, {"must_formula_agreement", "must_test_agreement", "must_implies_may"}


@pytest.mark.parametrize("mutate", [acc_unclipped, must_states_past_the_system])
def test_masks_outside_the_system_are_failures(monkeypatch, mutate):
    # a mask with bits past the last state is reported, never indexed
    only, failing = mutate(monkeypatch)
    report = verify_theorems(TrialConfig(), only=only)
    failures = {c.name: c.failures for c in report.checks}
    assert {name for name, count in failures.items() if count} == failing
    for check in report.checks:
        found = check.counterexample
        if found is not None and "state" in found:
            assert found["state"] in parse_lts(found["lts"])[0].states
        if found is not None and "error" in found:
            assert "outside the system" in found["error"], found


def pre_of_complement(monkeypatch):
    # an open modality's pre-image is taken of the complement of its
    # input: not monotone, so Kleene iterates can cycle
    def complement(self, node, act, mask):
        return self.lts.pre(act, self.lts.full_mask & ~mask)

    monkeypatch.setattr(semantics._Evaluator, "_pre", complement)


def test_fixpoints_that_never_settle_fail_their_trials(monkeypatch, capsys):
    # the Kleene loops stop at their bound and raise FormulaError, which
    # the harness reports as the trial's failure: verify ends and exits 3
    pre_of_complement(monkeypatch)
    report = verify_theorems(TrialConfig(), only={"may_formula_agreement", "bekic_equivalence"})
    errors = {c.name: c.counterexample["error"] for c in report.checks}
    assert errors == {
        "may_formula_agreement": "fixpoint X0 did not settle within 3 iterations: "
                                 "the body is not monotone",
        "bekic_equivalence": "simultaneous fixpoint Z0 did not settle within 8 iterations: "
                             "the bodies are not monotone",
    }
    assert cli.main(["verify", "--seed", "1", "--trials", "10", "--property-trials", "4"]) == 3
    assert 'error="' in capsys.readouterr().out
