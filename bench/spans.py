"""Span recorder for the traced runs.

Spans are opened by wrappers that replace rechml's public functions at
every place a module looks them up (``rechml.cli.explore`` as well as
``rechml.testterms.explore``), plus ``Lts.__init__`` and the per-trial
methods of the verify harness.  Nothing under ``src/`` is changed: the
wrappers are installed for the length of one traced query and removed
after it.

A span is [name, start, end, parent]; spans stay in memory until the run
ends.  Self time is a span's duration minus the part of it that its
child spans cover.  Counting work a wrapper does after the call (node
counts, distinct-term sets) is itself recorded as a ``trace`` span, so it
is charged to tracing and not to the caller's self time.
"""

import inspect
import sys
import time
from collections import Counter, defaultdict

import workloads

# span name -> the functions it wraps, as (module, attribute)
LAYERS = {
    "textio.parse": [("textio", "parse_lts"), ("textio", "parse_formula"), ("textio", "parse_test")],
    "textio.format": [("textio", "format_formula"), ("textio", "format_test"), ("textio", "format_lts")],
    "testterms.explore": [("testterms", "explore")],
    "experiments.compose": [("experiments", "parallel_compose")],
    "experiments.solve": [("experiments", f) for f in
                          ("may_satisfy", "must_satisfy", "may_witness", "must_counterexample")],
    "semantics.interpret": [("semantics", f) for f in
                            ("interpret", "interpret_simultaneous", "interpret_simultaneous_vector")],
    "translate.system": [("translate", "test_lts_to_must_system"), ("translate", "test_lts_to_may_system")],
    "translate.compile_formula": [("translate", "formula_to_must_test"), ("translate", "formula_to_may_test")],
    "formulas.bekic": [("formulas", "bekic_eliminate")],
    "generators.generate": [("generators", f) for f in
                            ("generate_lts", "generate_formula", "generate_test", "generate_sim_system")],
}

# Self-time metrics, one per span name; cli.query is the span around one
# whole CLI call, so its self time is the time no layer span covers.
SELF_TIME = {**{span: f"{span}_s" for span in LAYERS},
             "lts.build": "lts.build_s", "cli.query": "cli.self_s"}

COUNTS = ("lts.builds", "lts.states_built", "lts.divergent_states",
          "semantics.fixpoint_iterations", "semantics.evaluations",
          "testterms.explores", "testterms.test_states",
          "experiments.composes", "experiments.configs",
          "formulas.dag_nodes", "formulas.tree_nodes", "textio.output_chars")

# ratio -> (distinct set, base count)
RATIOS = {
    "testterms.distinct_explore_ratio": ("explore", "testterms.explores"),
    "experiments.distinct_config_ratio": ("config", "experiments.configs"),
}

HARNESS = {f"harness.{name}": f"harness.{name}_s" for name, _, _ in workloads.VERIFY_CHECKS}


def self_times(spans):
    """Self time of every span: its duration minus the union of its
    children's intervals (clipped to it)."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] is not None:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children[i]):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


class Recorder:
    """Spans, counts and distinct-key sets of one traced pass."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.distinct = defaultdict(set)
        self.keep = []  # objects whose id() is part of a distinct key

    def open(self, name):
        self.spans.append([name, time.perf_counter(), None, self.stack[-1] if self.stack else None])
        self.stack.append(len(self.spans) - 1)

    def close(self):
        self.spans[self.stack.pop()][2] = time.perf_counter()

    def inside(self, name):
        return bool(self.stack) and self.spans[self.stack[-1]][0] == name

    def summary(self):
        """Per-layer metrics of this pass."""
        out = dict.fromkeys(list(SELF_TIME.values()) + list(HARNESS.values()), 0.0)
        for span, own in zip(self.spans, self_times(self.spans)):
            name = span[0]
            if name in SELF_TIME:
                out[SELF_TIME[name]] += own
            elif name in HARNESS:
                out[HARNESS[name]] += span[2] - span[1]  # inclusive: the whole check
        for key in COUNTS:
            out[key] = self.counts[key]
        for ratio, (kind, base) in RATIOS.items():
            out[ratio] = len(self.distinct[kind]) / self.counts[base] if self.counts[base] else 0.0
        return out


def _tree_size(root, formula_cls):
    """(distinct nodes, tree nodes) of a formula DAG, without recursion."""
    sizes = {}
    stack = [root]
    while stack:
        node = stack[-1]
        if id(node) in sizes:
            stack.pop()
            continue
        kids = [v for v in vars(node).values() if isinstance(v, formula_cls)]
        todo = [k for k in kids if id(k) not in sizes]
        if todo:
            stack.extend(todo)
        else:
            stack.pop()
            sizes[id(node)] = 1 + sum(sizes[id(k)] for k in kids)
    return len(sizes), sizes[id(root)]


class Tracer:
    """Builds the wrappers once; install() and uninstall() swap them in
    and out around one traced query."""

    def __init__(self):
        self.rec = Recorder()
        self.patches = []
        self.missing = []
        mods = {name: sys.modules[f"rechml.{name}"] for name in
                ("cli", "textio", "testterms", "experiments", "semantics", "translate",
                 "formulas", "generators", "harness", "lts")}
        after = {
            "textio.format": self._after_format,
            "testterms.explore": self._after_explore,
            "experiments.compose": self._after_compose,
            "formulas.bekic": self._after_bekic,
        }
        self._formula = mods["formulas"].Formula
        self._stats = mods["semantics"].EvalStats
        for span, targets in LAYERS.items():
            for module, attr in targets:
                fn = getattr(mods[module], attr, None)
                if fn is None:
                    self.missing.append(f"{module}.{attr}")
                    continue
                if span == "semantics.interpret":
                    wrapper = self._wrap_interpret(fn)
                else:
                    wrapper = self._wrap(span, fn, after.get(span))
                for mod in mods.values():
                    for name, value in list(vars(mod).items()):
                        if value is fn:
                            self.patches.append((mod, name, fn, wrapper))
        lts_cls = mods["lts"].Lts
        self.patches.append((lts_cls, "__init__", lts_cls.__init__,
                             self._wrap("lts.build", lts_cls.__init__, self._after_build)))
        harness_cls = getattr(mods["harness"], "_Harness", None)
        for name, _, method in workloads.VERIFY_CHECKS:
            fn = getattr(harness_cls, method, None)
            if fn is None:
                self.missing.append(f"harness.{method}")
                continue
            self.patches.append((harness_cls, method, fn, self._wrap(f"harness.{name}", fn)))

    def install(self):
        for owner, attr, _, wrapper in self.patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self.patches:
            setattr(owner, attr, original)

    def new_pass(self):
        self.rec = Recorder()

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, span, fn, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            rec = tracer.rec
            if rec.inside(span):  # recursion through a patched name: one span
                return fn(*args, **kwargs)
            rec.open(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec.close()
            if after is not None:
                rec.open("trace")
                after(rec, out, args)
                rec.close()
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_interpret(self, fn):
        """Counts come from the public stats= argument: a fresh EvalStats
        when the caller passes none, the difference otherwise."""
        tracer = self
        sig = inspect.signature(fn)
        if "stats" not in sig.parameters:
            return self._wrap("semantics.interpret", fn)

        def wrapper(*args, **kwargs):
            rec = tracer.rec
            if rec.inside("semantics.interpret"):
                return fn(*args, **kwargs)
            bound = sig.bind(*args, **kwargs)
            stats = bound.arguments.get("stats")
            if stats is None:
                stats = bound.arguments["stats"] = tracer._stats()
            before = stats.fixpoint_iterations, stats.evaluations
            rec.open("semantics.interpret")
            try:
                return fn(*bound.args, **bound.kwargs)
            finally:
                rec.close()
                rec.counts["semantics.fixpoint_iterations"] += stats.fixpoint_iterations - before[0]
                rec.counts["semantics.evaluations"] += stats.evaluations - before[1]

        wrapper.__wrapped__ = fn
        return wrapper

    @staticmethod
    def _after_build(rec, out, args):
        lts = args[0]
        rec.counts["lts.builds"] += 1
        rec.counts["lts.states_built"] += len(lts.states)
        rec.counts["lts.divergent_states"] += bin(lts.divergent_mask).count("1")

    @staticmethod
    def _after_format(rec, out, args):
        rec.counts["textio.output_chars"] += len(out)

    @staticmethod
    def _after_explore(rec, out, args):
        rec.counts["testterms.explores"] += 1
        rec.counts["testterms.test_states"] += len(out[0].states)
        rec.distinct["explore"].add(args[0])

    @staticmethod
    def _after_compose(rec, out, args):
        proc, test = args[0], args[1]
        rec.keep.append((proc, test))
        rec.counts["experiments.composes"] += 1
        rec.counts["experiments.configs"] += len(out.configs)
        rec.distinct["config"].update((id(proc), id(test), c) for c in out.configs)

    def _after_bekic(self, rec, out, args):
        dag, tree = _tree_size(out, self._formula)
        rec.counts["formulas.dag_nodes"] += dag
        rec.counts["formulas.tree_nodes"] += tree
