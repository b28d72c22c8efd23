"""Command line interface.

Verbs: check (formula satisfaction), may/must (test verdicts), two
compile verbs for the four translations, and verify (the randomized
harness).  Exit codes: 0 for success or a true verdict, 1 for a false
verdict, 2 for input errors, 3 for harness failures and blown internal
limits: the test-state cap, the experiment's configuration cap, the
recursion limit, the printed size of an eliminated formula, and memory
(a MemoryError in any verb).  Every error is one "error:" line on stderr.

The walks over terms and formulas are recursive, so main sets the
recursion limit once, to a depth the running Python survives.
"""

import argparse
import functools
import os
import sys

from .experiments import (MAX_CONFIGS, may_satisfy, may_witness, must_counterexample, must_satisfy,
                          parallel_compose)
from .formulas import FormulaError, bekic_eliminate, tree_size
from .generators import TrialConfig
from .harness import report_json, report_text, verify_theorems
from .lts import LtsError
from .semantics import interpret
from .testterms import CapExceeded, TestError, reachable_lts
from .textio import (ParseError, format_equations, format_formula, format_test, parse_formula, parse_lts,
                     parse_test)
from .translate import (
    formula_to_may_test,
    formula_to_must_test,
    test_lts_to_may_system,
    test_lts_to_must_system,
)

# compile-test prints no eliminated formula larger than this as a tree:
# elimination shares subterms and printing unshares them, so a test of 7
# states with a move between every pair gives a DAG of 516 nodes whose
# tree has 2.0e14.  Dense tests of 5 states stay below 3e4.
MAX_PRINTED_NODES = 1_000_000


def _bool(value) -> str:
    return "true" if value else "false"


def _print_json(payload):
    import json  # loaded only when a verb prints json

    print(json.dumps(payload, sort_keys=True))


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
    test term, literal or in a file.  No test term ends in .lts (the token
    lts must be followed by .), so a missing .lts file is reported as one."""
    if cap < 1:
        raise ValueError(f"max_states must be at least 1, got {cap}")
    if value.endswith(".lts"):
        lts, init = _load_lts_file(value)
        if init is None:
            raise ParseError(f"{value}: test system needs an init line")
        return lts, init
    return reachable_lts(parse_test(_source(value)), max_states=cap)


def _cmd_check(args) -> int:
    lts, _ = _load_lts_file(args.lts)
    formula = parse_formula(_source(args.formula))
    state = lts.state_index(args.state)
    verdict = bool(interpret(lts, formula) & (1 << state))
    if args.format == "json":
        _print_json({
            "command": "check",
            "state": args.state,
            "formula": format_formula(formula),
            "verdict": verdict,
        })
    else:
        print(f"sat={_bool(verdict)}")
    return 0 if verdict else 1


def _cmd_testing(args) -> int:
    proc, _ = _load_lts_file(args.lts)
    proc.state_index(args.state)
    test_lts, root = _load_test_side(args.test, args.max_test_states)
    graph = parallel_compose(proc, test_lts, args.state, root, args.max_configs)
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
        _print_json(payload)
    else:
        print("\n".join(lines))
    verdict = may if args.command == "may" else must
    return 0 if verdict else 1


def _cmd_compile_formula(args) -> int:
    formula = parse_formula(_source(args.formula))
    compiled = formula_to_must_test(formula) if args.mode == "must" else formula_to_may_test(formula)
    if args.format == "json":
        _print_json({
            "command": "compile-formula",
            "mode": args.mode,
            "formula": format_formula(formula),
            "test": format_test(compiled),
        })
    else:
        print(format_test(compiled))
    return 0


def _cmd_compile_test(args) -> int:
    test_lts, root = _load_test_side(args.test, args.max_test_states)
    build = test_lts_to_must_system if args.mode == "must" else test_lts_to_may_system
    system = build(test_lts, root)
    if args.show_system and args.format == "text":
        print("\n".join(format_equations(system)))
    formula = bekic_eliminate(system)
    size = tree_size(formula)
    if size > MAX_PRINTED_NODES:
        raise CapExceeded(f"the eliminated formula has {size} nodes as a tree, more than "
                          f"the {MAX_PRINTED_NODES} that are printed; --show-system with text "
                          "format still prints the equation system")
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
        _print_json(payload)
    else:
        print(format_formula(formula))
    return 0


def _cmd_verify(args) -> int:
    cfg = TrialConfig(**{name: getattr(args, name) for name in TrialConfig._fields})
    report = verify_theorems(cfg, mutate=args.self_test_mutation)
    if args.format == "json":
        sys.stdout.write(report_json(report))
    else:
        sys.stdout.write(report_text(report))
    return 0 if report.passed else 3


# Built once per process: parse_args leaves the parser as it found it, and
# building it costs far more than a parse.
@functools.cache
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
        p.add_argument("--max-configs", type=int, default=MAX_CONFIGS,
                       help="abort once the experiment builds the moves of this many configurations")
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
    for name, default in TrialConfig._fields.items():
        p.add_argument("--" + name.replace("_", "-"), type=type(default), default=default)
    p.add_argument("--self-test-mutation", action="store_true",
                   help="corrupt the must compiler on purpose; failures expected")
    add_format(p)
    p.set_defaults(fn=_cmd_verify)

    return parser


def main(argv=None) -> int:
    # From Python 3.11 on, a Python call takes no C stack, so deep input
    # only costs memory.  On 3.10 every call does: with an 8 MB stack, each
    # command survived 20000 frames and crashed at 30000, so 10000 keeps a
    # margin of two.
    sys.setrecursionlimit(100_000 if sys.version_info >= (3, 11) else 10_000)
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
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 3
    except (ParseError, LtsError, FormulaError, TestError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
