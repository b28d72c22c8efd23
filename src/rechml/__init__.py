"""Recursive Hennessy-Milner logic over finite LTSs, with may/must
testing and translations in both directions."""

from .experiments import (
    Experiment,
    ExperimentGraph,
    compose_all,
    may_satisfy,
    may_states,
    may_witness,
    must_counterexample,
    must_satisfy,
    must_states,
    must_unfold_law,
    parallel_compose,
)
from .formulas import (
    Acc,
    And,
    Box,
    Dia,
    Ff,
    FormulaError,
    Max,
    Min,
    Or,
    SimFormula,
    Tt,
    Var,
    approximant,
    bekic_eliminate,
    free_vars,
    is_mayhml,
    is_musthml,
    is_tt_grammar,
    substitute,
)
from .generators import TrialConfig, generate_formula, generate_lts, generate_test, spawn_rng
from .harness import TrialReport, report_json, report_text, verify_theorems
from .lts import OMEGA, TAU, Action, Lts, LtsError, visible
from .semantics import EvalStats, interpret, interpret_simultaneous, interpret_states, satisfies
from .testterms import (
    CapExceeded,
    Mu,
    Nil,
    Prefix,
    Success,
    Sum,
    TestError,
    explore,
    reachable_lts,
    test_step,
)
from .testterms import Var as TVar
from .textio import (
    ParseError,
    format_formula,
    format_lts,
    format_test,
    parse_formula,
    parse_lts,
    parse_test,
)
from .translate import (
    formula_to_may_test,
    formula_to_must_test,
    test_lts_to_may_system,
    test_lts_to_must_system,
    test_to_may_formula,
    test_to_must_formula,
)

__version__ = "0.1.0"

__all__ = [
    "Acc", "Action", "And", "Box", "CapExceeded", "Dia", "EvalStats",
    "Experiment", "ExperimentGraph", "Ff", "FormulaError", "Lts",
    "LtsError", "Max", "Min", "Mu", "Nil", "OMEGA", "Or", "ParseError", "Prefix",
    "SimFormula", "Success", "Sum", "TAU", "TVar", "TestError",
    "TrialConfig", "TrialReport", "Tt", "Var", "approximant",
    "bekic_eliminate", "compose_all", "explore", "format_formula", "format_lts",
    "format_test", "formula_to_may_test", "formula_to_must_test",
    "free_vars", "generate_formula", "generate_lts", "generate_test",
    "interpret", "interpret_simultaneous", "interpret_states",
    "is_mayhml", "is_musthml", "is_tt_grammar", "may_satisfy",
    "may_states", "may_witness", "must_counterexample", "must_satisfy",
    "must_states",
    "must_unfold_law", "parallel_compose", "parse_formula", "parse_lts",
    "parse_test", "reachable_lts", "report_json", "report_text",
    "satisfies", "spawn_rng", "substitute", "test_lts_to_may_system",
    "test_lts_to_must_system", "test_step", "test_to_may_formula",
    "test_to_must_formula", "verify_theorems", "visible",
]
