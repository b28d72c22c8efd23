"""Randomized machine-checking of the representation theorems.

Each check draws its own per-trial generator by seed splitting, so a
report is reproducible trial by trial and byte-identical across runs.
Known awkward shapes (deadlock, a tau self-loop, the a/b fork and a
divergent fork) are seeded into every run as trial 0 fixtures alongside
the random instances.

The four representation theorems share one trial, _agreement: a
formula and a test that correspond are drawn or compiled, the test is
explored once, and the states that satisfy the formula are compared with
the states that pass the test.

The mutation flag swaps in the must compiler's wrong variant (a visible
box loses its tau escape to success) and is expected to produce
failures; it exists so a silent-green harness can be told apart from one
that cannot see anything.
"""

from . import formulas as fm
from . import testterms as tm
from .experiments import compose_all, may_states, must_states
from .formulas import FormulaError, bekic_eliminate
from .generators import TrialConfig, generate_formula, generate_lts, generate_sim_system, generate_test, spawn_rng
from .lts import TAU, Lts, LtsError, visible
from .semantics import EvalStats, interpret, interpret_simultaneous_vector
from .testterms import reachable_lts
from .textio import format_equations, format_formula, format_lts, format_test
from .translate import (_must_test, formula_to_may_test, formula_to_must_test,
                        test_lts_to_may_system, test_lts_to_must_system)


class CheckResult(fm.Record):
    _fields = {"name": ..., "trials": ..., "failures": ..., "counterexample": ...,
               "fixpoint_iterations": ..., "max_fixpoint_iterations": ..., "divergent_trials": 0}

    @property
    def passed(self) -> bool:
        return self.failures == 0


class TrialReport(fm.Record):
    _fields = {"config": ..., "mutation": ..., "checks": ()}

    @property
    def failures(self) -> int:
        return sum(c.failures for c in self.checks)

    @property
    def passed(self) -> bool:
        return self.failures == 0


def fixture_lts(cfg: TrialConfig, name: str = "fixture") -> Lts:
    """Deadlock, an a/b fork, the two one-armed processes and two divergent
    states, over the configured alphabet."""
    letters = cfg.alphabet()
    a = visible(letters[0])
    b = visible(letters[1]) if len(letters) > 1 else a
    transitions = [
        ("fork", a, "dead"),
        ("fork", b, "dead"),
        ("pa", a, "dead"),
        ("pb", b, "dead"),
        ("div", TAU, "div"),
        ("divfork", TAU, "divfork"),
        ("divfork", a, "dead"),
        ("divfork", b, "dead"),
    ]
    return Lts(states=["dead", "fork", "pa", "pb", "div", "divfork"],
               transitions=transitions, alphabet=letters, name=name)


def _deadlock_lts(cfg) -> Lts:
    return Lts(states=["dead"], alphabet=cfg.alphabet(), name="deadlock")


def _tauloop_lts(cfg) -> Lts:
    return Lts(states=["loop"], transitions=[("loop", TAU, "loop")],
               alphabet=cfg.alphabet(), name="tauloop")


def _bool(value) -> str:
    return "true" if value else "false"


def _has(mask: int, i: int) -> bool:
    return bool(mask & (1 << i))


# the failure of a trial whose masks differ only in bits that name no state
_OUTSIDE = "masks differ outside the system"


def _first_state(lts: Lts, diff: int) -> int | None:
    """The index of the first state in a difference of masks, clipped to
    the system: None when the masks differ only outside it."""
    diff &= lts.full_mask
    return (diff & -diff).bit_length() - 1 if diff else None


class _Harness:
    def __init__(self, cfg: TrialConfig, mutate: bool):
        self.cfg = cfg
        self.mutate = mutate
        self.fixture = fixture_lts(cfg)
        # the Bekic check reads the same systems in every trial
        self.bekic_pool = [generate_lts(cfg, spawn_rng(cfg.seed, "bekic_pool", member))
                           for member in range(20)]
        self.report = TrialReport(cfg, mutate, [])
        self._divergent = 0

    def run(self, only=None) -> TrialReport:
        table = [
            ("must_formula_agreement", self.cfg.trials, self.check_must_formula),
            ("must_test_agreement", self.cfg.trials, self.check_must_test),
            ("may_formula_agreement", self.cfg.trials, self.check_may_formula),
            ("may_test_agreement", self.cfg.trials, self.check_may_test),
            ("bekic_equivalence", self.cfg.property_trials, self.check_bekic),
            ("fixpoint_prefix_property", self.cfg.property_trials, self.check_prefix_property),
            ("fixpoint_unfolding", self.cfg.property_trials, self.check_unfolding),
            ("approximant_chain", self.cfg.property_trials, self.check_approximants),
            ("divergence_collapse", self.cfg.property_trials, self.check_divergence_collapse),
            ("open_min_not_full", self.cfg.property_trials, self.check_open_min),
            ("acc_equivalence", self.cfg.property_trials, self.check_acc_equivalence),
            ("unfold_law", self.cfg.property_trials, self.check_unfold_law),
            ("must_implies_may", self.cfg.property_trials, self.check_must_implies_may),
            ("tt_grammar_semantic", self.cfg.property_trials, self.check_tt_grammar),
        ]
        for name, count, fn in table:
            if only is not None and name not in only:
                continue
            stats = EvalStats()
            failures = 0
            first = None
            self._divergent = 0
            for trial in range(count):
                rng = spawn_rng(self.cfg.seed, name, trial)
                try:
                    found = fn(trial, rng, stats)
                except (FormulaError, LtsError) as err:
                    # a broken evaluator (a fixpoint that never settles, a
                    # mask outside the system) fails the trial, not the run
                    found = {"error": str(err)}
                if found is not None:
                    failures += 1
                    if first is None:
                        found = {"check": name, "trial": trial, **found}
                        first = found
            self.report.checks.append(CheckResult(
                name, count, failures, first,
                stats.fixpoint_iterations, stats.max_fixpoint_iterations,
                self._divergent,
            ))
        return self.report

    # -- shared pieces -----------------------------------------------------

    def trial_lts(self, trial, rng, name="g") -> Lts:
        lts = self.fixture if trial == 0 else generate_lts(self.cfg, rng, name)
        if lts.divergent_mask:
            self._divergent += 1
        return lts

    # -- representation theorems --------------------------------------------

    def check_must_formula(self, trial, rng, stats):
        return self._agreement(trial, rng, stats, "must", "formula")

    def check_must_test(self, trial, rng, stats):
        return self._agreement(trial, rng, stats, "must", "test")

    def check_may_formula(self, trial, rng, stats):
        return self._agreement(trial, rng, stats, "may", "formula")

    def check_may_test(self, trial, rng, stats):
        return self._agreement(trial, rng, stats, "may", "test")

    def _agreement(self, trial, rng, stats, mode, source):
        """One trial of a representation theorem: the states that satisfy
        a formula are the states that mode-pass the test it corresponds
        to.  source names the side that is drawn at random and compiled
        to the other; the test is explored once either way."""
        lts = self.trial_lts(trial, rng)
        must = mode == "must"
        if source == "formula":
            formula = generate_formula(self.cfg, rng, mode)
            if not must:
                test = formula_to_may_test(formula)
            elif self.mutate:
                test = _must_test(formula, escape=False)
            else:
                test = formula_to_must_test(formula)
            tlts, troot = reachable_lts(test)
        else:
            test = generate_test(self.cfg, rng)
            tlts, troot = reachable_lts(test)
            system = test_lts_to_must_system if must else test_lts_to_may_system
            formula = bekic_eliminate(system(tlts, troot))
            if not (fm.is_musthml if must else fm.is_mayhml)(formula):
                return {"test": format_test(test), "error": f"compiled formula outside {mode} fragment"}
        sat = interpret(lts, formula, stats=stats)
        graph = compose_all(lts, tlts, troot)
        passing = must_states(graph) if must else may_states(graph)
        if sat == passing:
            return None
        i = _first_state(lts, sat ^ passing)
        if i is None:
            return {"lts": format_lts(lts), "formula": format_formula(formula),
                    "test": format_test(test), "mode": mode, "error": _OUTSIDE}
        state = lts.states[i]
        return {
            "state": state,
            "formula": format_formula(formula),
            "test": format_test(test),
            "formula_verdict": _has(sat, i),
            "test_verdict": _has(passing, i),
            "mode": mode,
            "lts": format_lts(lts, state),
        }

    # -- fixpoint machinery ---------------------------------------------------

    def check_bekic(self, trial, rng, stats):
        sim = generate_sim_system(self.cfg, rng)
        eliminated = bekic_eliminate(sim)
        for lts in self.bekic_pool:
            vector = interpret_simultaneous_vector(lts, sim, stats=stats)
            single = interpret(lts, eliminated, stats=stats)
            if single != vector[sim.index]:
                return {
                    "lts": format_lts(lts),
                    "system": _format_system(sim),
                    "index": sim.index,
                    "simultaneous": list(lts.names_of(vector[sim.index])),
                    "eliminated": list(lts.names_of(single)),
                }
        return None

    def check_prefix_property(self, trial, rng, stats):
        lts = self.trial_lts(trial, rng)
        sim = generate_sim_system(self.cfg, rng)
        least = interpret_simultaneous_vector(lts, sim, stats=stats)

        def bodies_at(vector):
            env = dict(zip(sim.variables, vector))
            return tuple(interpret(lts, b, env, stats=stats) for b in sim.bodies)

        # downward iterates from the full vector are prefixed points
        candidate = tuple(lts.full_mask for _ in sim.variables)
        for _ in range(rng.randint(0, 3)):
            candidate = bodies_at(candidate)
        # plus an arbitrary vector, kept only when the premise holds
        arbitrary = tuple(rng.randrange(lts.full_mask + 1) for _ in sim.variables)
        samples = [candidate]
        if all(v & ~p == 0 for v, p in zip(bodies_at(arbitrary), arbitrary)):
            samples.append(arbitrary)
        for sample in samples:
            applied = bodies_at(sample)
            if not all(v & ~p == 0 for v, p in zip(applied, sample)):
                continue
            if any(l & ~p != 0 for l, p in zip(least, sample)):
                return {
                    "lts": format_lts(lts),
                    "system": _format_system(sim),
                    "prefixed_point": [list(lts.names_of(p)) for p in sample],
                }
        return None

    def check_unfolding(self, trial, rng, stats):
        lts = self.trial_lts(trial, rng)
        sim = generate_sim_system(self.cfg, rng)
        least = interpret_simultaneous_vector(lts, sim, stats=stats)
        env = dict(zip(sim.variables, least))
        for k, body in enumerate(sim.bodies):
            if interpret(lts, body, env, stats=stats) != least[k]:
                return {"lts": format_lts(lts), "system": _format_system(sim), "component": k}
        # single-variable corollary: min X.phi equals its own unfolding
        body = generate_formula(self.cfg, rng, "full", scope=("X0",))
        phi = fm.Min("X0", body)
        unfolded = fm.substitute(body, "X0", phi)
        if interpret(lts, phi, stats=stats) != interpret(lts, unfolded, stats=stats):
            return {"lts": format_lts(lts), "formula": format_formula(phi)}
        # max X.phi is the limit of phi iterated down from every state
        # (Knaster-Tarski); a decreasing chain settles within n steps
        greatest = lts.full_mask
        for _ in range(len(lts.states) + 1):
            below = interpret(lts, body, {"X0": greatest})
            if below == greatest:
                break
            greatest = below
        if interpret(lts, fm.Max("X0", body)) != greatest:
            return {"lts": format_lts(lts), "formula": format_formula(fm.Max("X0", body)),
                    "limit": list(lts.names_of(greatest))}
        return None

    def check_approximants(self, trial, rng, stats):
        small = self.cfg.replace(max_states=min(self.cfg.max_states, 6))
        lts = generate_lts(small, rng) if trial else _deadlock_lts(small)
        formula = generate_formula(self.cfg, rng, "must")
        target = interpret(lts, formula, stats=stats)
        bound = len(lts.states) * fm.nesting_depth(formula) + 2
        previous = 0
        for k in range(bound + 1):
            current = interpret(lts, fm.approximant(formula, k), stats=stats)
            if previous & ~current:
                return {"lts": format_lts(lts), "formula": format_formula(formula),
                        "level": k, "error": "approximant chain not monotone"}
            if current & ~target:
                return {"lts": format_lts(lts), "formula": format_formula(formula),
                        "level": k, "error": "approximant exceeds the fixpoint"}
            if current == target:
                return None
            previous = current
        return {"lts": format_lts(lts), "formula": format_formula(formula),
                "bound": bound, "error": "approximants did not stabilize within bound"}

    # -- logic lemmas ---------------------------------------------------------

    def check_divergence_collapse(self, trial, rng, stats):
        base = generate_lts(self.cfg, rng)
        looper = rng.randrange(len(base.states))
        lts = base._with(looper, TAU, looper)
        formula = generate_formula(self.cfg, rng, "must")
        sat = interpret(lts, formula, stats=stats)
        if sat & lts.divergent_mask and sat != lts.full_mask:
            return {"lts": format_lts(lts), "formula": format_formula(formula),
                    "satisfied": list(lts.names_of(sat))}
        return None

    def check_open_min(self, trial, rng, stats):
        body = generate_formula(self.cfg, rng, "must", scope=("X0",))
        if "X0" not in fm.free_vars(body):
            body = fm.And(fm.Var("X0"), body)
        formula = fm.Min("X0", body)
        base = generate_lts(self.cfg, rng)
        looper = rng.randrange(len(base.states))
        lts = base._with(looper, TAU, looper)
        if interpret(lts, formula, stats=stats) == lts.full_mask:
            return {"lts": format_lts(lts), "formula": format_formula(formula)}
        return None

    def check_acc_equivalence(self, trial, rng, stats):
        lts = self.trial_lts(trial, rng)
        letters = [] if trial % 10 == 1 else [a for a in self.cfg.alphabet() if rng.random() < 0.5]
        acc = fm.Acc(frozenset(letters))
        spelled: fm.Formula = fm.Ff()
        for k, a in enumerate(sorted(letters)):
            dia = fm.Dia(visible(a), fm.Tt())
            spelled = dia if k == 0 else fm.Or(spelled, dia)
        boxed = fm.Box(TAU, spelled)
        if interpret(lts, acc, stats=stats) != interpret(lts, boxed, stats=stats):
            return {"lts": format_lts(lts), "acc": format_formula(acc),
                    "spelled": format_formula(boxed)}
        return None

    # -- testing engine ---------------------------------------------------------

    def check_unfold_law(self, trial, rng, stats):
        lts = self.trial_lts(trial, rng)
        body = generate_test(self.cfg, rng, scope=("X0",))
        test = tm.Mu("X0", body)
        recursive, unfolded = (must_states(compose_all(lts, *reachable_lts(t)))
                               for t in (test, tm.substitute(body, "X0", test)))
        converging = lts.full_mask & ~lts.divergent_mask
        # must for mu X.t implies must for its unfolding; the converse
        # holds at converging states
        violations = recursive & ~unfolded | converging & unfolded & ~recursive
        if not violations:
            return None
        i = _first_state(lts, violations)
        if i is None:
            return {"lts": format_lts(lts), "test": format_test(test), "error": _OUTSIDE}
        state = lts.states[i]
        return {"lts": format_lts(lts, state), "state": state,
                "test": format_test(test),
                "recursive": _has(recursive, i),
                "unfolded": _has(unfolded, i),
                "converges": _has(converging, i)}

    def check_must_implies_may(self, trial, rng, stats):
        lts = self.trial_lts(trial, rng)
        test = generate_test(self.cfg, rng)
        tlts, troot = reachable_lts(test)
        graph = compose_all(lts, tlts, troot)
        if len(graph) > len(lts.states) * len(tlts.states):
            return {"lts": format_lts(lts), "test": format_test(test),
                    "error": "experiment larger than the product bound"}
        bad = must_states(graph) & ~may_states(graph)
        if not bad:
            return None
        i = _first_state(lts, bad)
        if i is None:
            return {"lts": format_lts(lts), "test": format_test(test), "error": _OUTSIDE}
        state = lts.states[i]
        return {"lts": format_lts(lts, state), "state": state,
                "test": format_test(test)}

    def check_tt_grammar(self, trial, rng, stats):
        formula = generate_formula(self.cfg, rng, "must")
        family = [_deadlock_lts(self.cfg), _tauloop_lts(self.cfg), self.fixture,
                  generate_lts(self.cfg, rng)]
        full_everywhere = all(
            interpret(member, formula, stats=stats) == member.full_mask
            for member in family
        )
        if fm.is_tt_grammar(formula) != full_everywhere:
            return {"formula": format_formula(formula),
                    "is_tt_grammar": fm.is_tt_grammar(formula),
                    "full_everywhere": full_everywhere}
        return None


def _format_system(sim: fm.SimFormula) -> str:
    return f"min[{sim.index}] {{ " + " ; ".join(format_equations(sim)) + " }"


def verify_theorems(cfg: TrialConfig, mutate: bool = False, only=None) -> TrialReport:
    """Run every registered check; only (a set of names) restricts them."""
    return _Harness(cfg, mutate).run(only)


def report_text(report: TrialReport) -> str:
    import json  # loaded by the two report printers only

    settings = "".join(f" {k}={v}" for k, v in report.config.asdict().items())
    lines = [f"verify{settings} mutation={'on' if report.mutation else 'off'}"]
    for check in report.checks:
        lines.append(
            f"check name={check.name} trials={check.trials} failures={check.failures}"
            f" divergent_trials={check.divergent_trials}"
            f" fixpoint_iterations={check.fixpoint_iterations}"
            f" max_fixpoint_iterations={check.max_fixpoint_iterations}"
        )
        if check.counterexample is not None:
            parts = []
            for key, value in check.counterexample.items():
                if isinstance(value, bool):
                    parts.append(f"{key}={_bool(value)}")
                elif isinstance(value, (int, float)):
                    parts.append(f"{key}={value}")
                else:
                    parts.append(f"{key}={json.dumps(str(value))}")
            lines.append("counterexample " + " ".join(parts))
    lines.append(
        f"summary checks={len(report.checks)} failures={report.failures}"
        f" verdict={'pass' if report.passed else 'fail'}"
    )
    return "\n".join(lines) + "\n"


def report_json(report: TrialReport) -> str:
    import json

    payload = {
        "config": report.config.asdict(),
        "mutation": report.mutation,
        "checks": [c.asdict() for c in report.checks],
        "summary": {
            "checks": len(report.checks),
            "failures": report.failures,
            "verdict": "pass" if report.passed else "fail",
        },
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"
