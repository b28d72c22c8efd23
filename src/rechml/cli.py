"""Command line interface.

Verbs: check (formula satisfaction), may/must (test verdicts), two
compile verbs for the four translations, and verify (the randomized
harness).  Exit codes: 0 for success or a true verdict, 1 for a false
verdict, 2 for input errors, 3 for harness failures and blown internal
limits.
"""

import argparse
import json
import os
import sys

from .experiments import may_satisfy, may_witness, must_counterexample, must_satisfy, parallel_compose
from .formulas import FormulaError, bekic_eliminate
from .generators import TrialConfig
from .harness import report_json, report_text, verify_theorems
from .lts import LtsError
from .semantics import interpret
from .testterms import CapExceeded, TestError, explore
from .textio import ParseError, format_formula, format_test, parse_formula, parse_lts, parse_test
from .translate import (
    formula_to_may_test,
    formula_to_must_test,
    test_lts_to_may_system,
    test_lts_to_must_system,
)


def _bool(value) -> str:
    return "true" if value else "false"


def _source(value: str) -> str:
    if os.path.isfile(value):
        with open(value, encoding="utf-8") as handle:
            return handle.read()
    return value


def _load_lts_file(path: str):
    if not os.path.isfile(path):
        raise ParseError(f"no such file: {path}")
    with open(path, encoding="utf-8") as handle:
        return parse_lts(handle.read())


def _load_test_side(value: str, cap: int):
    """A test argument is either an .lts file (its init is the root) or a
    test term, literal or in a file."""
    if os.path.isfile(value) and value.endswith(".lts"):
        lts, init = _load_lts_file(value)
        if init is None:
            raise ParseError(f"{value}: test system needs an init line")
        return lts, init, None
    term = parse_test(_source(value))
    lts, root, terms = explore(term, max_states=cap)
    return lts, root, terms


def _config_line(pairs) -> str:
    return " ".join(f"{k}={v}" for k, v in pairs)


def _cmd_check(args) -> int:
    lts, _ = _load_lts_file(args.lts)
    formula = parse_formula(_source(args.formula))
    mask = interpret(lts, formula)
    verdict = bool(mask & (1 << lts.state_index(args.state)))
    if args.format == "json":
        print(json.dumps({
            "command": "check",
            "state": args.state,
            "formula": format_formula(formula),
            "verdict": verdict,
        }, sort_keys=True))
    else:
        print(f"sat={_bool(verdict)}")
    return 0 if verdict else 1


def _cmd_testing(args) -> int:
    proc, _ = _load_lts_file(args.lts)
    proc.state_index(args.state)
    test_lts, root, _ = _load_test_side(args.test, args.max_test_states)
    graph = parallel_compose(proc, test_lts, args.state, root)
    may = may_satisfy(graph)
    must = must_satisfy(graph)
    payload = {"command": args.command, "state": args.state,
               "may": may, "must": must}
    lines = [f"may={_bool(may)} must={_bool(must)}"]
    if args.witness:
        if args.command == "may":
            path = may_witness(graph)
            payload["witness"] = None if path is None else [list(c) for c in path]
            if path is None:
                lines.append("witness none")
            else:
                lines.append("witness")
                lines.extend(f"({p}|{t})" for p, t in path)
        else:
            found = must_counterexample(graph)
            if found is None:
                lines.append("counterexample none")
                payload["counterexample"] = None
            else:
                path, loop = found
                lines.append("counterexample")
                lines.extend(f"({p}|{t})" for p, t in path)
                lines.append("deadlock" if loop is None else f"loops to {loop}")
                payload["counterexample"] = {
                    "path": [list(c) for c in path],
                    "loops_to": loop,
                }
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        print("\n".join(lines))
    verdict = may if args.command == "may" else must
    return 0 if verdict else 1


def _cmd_compile_formula(args) -> int:
    formula = parse_formula(_source(args.formula))
    compiled = formula_to_must_test(formula) if args.mode == "must" else formula_to_may_test(formula)
    if args.format == "json":
        print(json.dumps({
            "command": "compile-formula",
            "mode": args.mode,
            "formula": format_formula(formula),
            "test": format_test(compiled),
        }, sort_keys=True))
    else:
        print(format_test(compiled))
    return 0


def _cmd_compile_test(args) -> int:
    test_lts, root, terms = _load_test_side(args.test, args.max_test_states)
    build = test_lts_to_must_system if args.mode == "must" else test_lts_to_may_system
    system = build(test_lts, root, terms)
    formula = bekic_eliminate(system)
    if args.format == "json":
        payload = {
            "command": "compile-test",
            "mode": args.mode,
            "formula": format_formula(formula),
        }
        if args.show_system:
            payload["system"] = [
                {"variable": v, "body": format_formula(b)}
                for v, b in zip(system.variables, system.bodies)
            ]
            payload["index"] = system.index
        print(json.dumps(payload, sort_keys=True))
    else:
        if args.show_system:
            for v, b in zip(system.variables, system.bodies):
                print(f"{v} = {format_formula(b)}")
        print(format_formula(formula))
    return 0


def _cmd_verify(args) -> int:
    cfg = TrialConfig(
        seed=args.seed,
        trials=args.trials,
        property_trials=args.property_trials,
        max_states=args.max_states,
        alphabet_size=args.alphabet_size,
        max_formula_depth=args.max_formula_depth,
        max_test_depth=args.max_test_depth,
        max_sim_vars=args.max_sim_vars,
        tau_density=args.tau_density,
        divergence_bias=args.divergence_bias,
    )
    report = verify_theorems(cfg, mutate=args.self_test_mutation)
    if args.format == "json":
        sys.stdout.write(report_json(report))
    else:
        sys.stdout.write(report_text(report))
    return 0 if report.passed else 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rechml",
        description="Recursive Hennessy-Milner logic and may/must testing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("check", help="does a state satisfy a formula")
    p.add_argument("lts", help="LTS file")
    p.add_argument("state")
    p.add_argument("formula", help="formula text or file")
    add_format(p)
    p.set_defaults(fn=_cmd_check)

    def add_cap(p):
        p.add_argument("--max-test-states", type=int, default=100_000,
                       help="abort if exploring the test term passes this many states")

    for verb in ("may", "must"):
        p = sub.add_parser(verb, help=f"{verb}-testing verdict")
        p.add_argument("lts", help="process LTS file")
        p.add_argument("state")
        p.add_argument("test", help="test term (text or file) or test .lts file")
        p.add_argument("--witness", action="store_true",
                       help="print a successful computation (may) or a failing one (must)")
        add_cap(p)
        add_format(p)
        p.set_defaults(fn=_cmd_testing)

    p = sub.add_parser("compile-formula", help="formula to test")
    p.add_argument("--mode", choices=("must", "may"), required=True)
    p.add_argument("--formula", required=True, help="formula text or file")
    add_format(p)
    p.set_defaults(fn=_cmd_compile_formula)

    p = sub.add_parser("compile-test", help="test to formula")
    p.add_argument("--mode", choices=("must", "may"), required=True)
    p.add_argument("--test", required=True, help="test term (text or file) or test .lts file")
    p.add_argument("--show-system", action="store_true",
                   help="also print the simultaneous system before elimination")
    add_cap(p)
    add_format(p)
    p.set_defaults(fn=_cmd_compile_test)

    p = sub.add_parser("verify", help="machine-check the theorems on random instances")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=500)
    p.add_argument("--property-trials", type=int, default=200)
    p.add_argument("--max-states", type=int, default=8)
    p.add_argument("--alphabet-size", type=int, default=3)
    p.add_argument("--max-formula-depth", type=int, default=5)
    p.add_argument("--max-test-depth", type=int, default=5)
    p.add_argument("--max-sim-vars", type=int, default=4)
    p.add_argument("--tau-density", type=float, default=0.3)
    p.add_argument("--divergence-bias", type=float, default=0.5)
    p.add_argument("--self-test-mutation", action="store_true",
                   help="corrupt the must compiler on purpose; failures expected")
    add_format(p)
    p.set_defaults(fn=_cmd_verify)

    return parser


def main(argv=None) -> int:
    sys.setrecursionlimit(100_000)
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CapExceeded as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except RecursionError:
        print("error: input nested too deeply (recursion limit reached)", file=sys.stderr)
        return 3
    except (ParseError, LtsError, FormulaError, TestError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
