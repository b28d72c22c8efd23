"""Seeded input generation for the benchmark workloads.

Every input is built from (workload, seed, scale) alone, so two processes
given the same arguments write byte-identical files and the same query
list.  The program under test only ever sees the files and the argv of
each query.  Generated systems and terms are also kept as plain Python
data (``Inputs.model``) for the independent reference in ``reference.py``.

Sizes are fixed per scale; the seed only changes the structure.  The
shapes are regular enough (tau cycles of a fixed length, rings with one
goal, chains of a fixed length) that the cost of a query varies little
from seed to seed, which keeps the spread between runs small.
"""

import itertools
import os
import random
from dataclasses import dataclass, field

WORKLOADS = ("verify", "cli")

LETTERS = ("a", "b", "c")

# Two robustness holes of the program are kept out on purpose: a dense
# test LTS of 6 or more states can print a formula of 1e8 characters or
# more (7 states does not finish), and terms or formulas nested 1e5 deep
# raise RecursionError.  The generator uses dense tests of exactly 5
# states (about 1.5e5 characters) and nests nothing deeper than a few
# dozen levels.
#
# Within a workload the sizes are spread out, so that query costs form no
# narrow clusters: a percentile that falls between two clusters, or inside
# one narrow cluster, jumps when the machine's speed changes a little.
SIZES = {
    "full": {
        "check": {"tangle_states": (200, 240, 280, 320), "tau_cycle": 24, "tangle_rounds": 2,
                  "ring_states": (360, 420, 480), "ring_rounds": 2},
        "testing": {"process_states": (400, 550, 700, 850, 1000), "tests": 6, "test_levels": 5},
        "compile": {"term_depth": 4, "term_chain": (4, 5, 6, 7, 8, 8, 9, 10, 11, 12),
                    "dense": 3, "dense_states": 5, "pool": 3, "pool_states": 5},
        "verify": {"queries": 50, "trials": 10, "property_trials": 4},
    },
    "smoke": {
        "check": {"tangle_states": (40,), "tau_cycle": 6, "tangle_rounds": 1,
                  "ring_states": (30,), "ring_rounds": 1},
        "testing": {"process_states": (20,), "tests": 2, "test_levels": 3},
        "compile": {"term_depth": 2, "term_chain": (2, 3),
                    "dense": 1, "dense_states": 3, "pool": 2, "pool_states": 3},
        "verify": {"queries": 2, "trials": 5, "property_trials": 3},
    },
}


# The fourteen checks of `rechml verify`, in report order: name, which
# trial count applies, and the harness method that runs one trial.
VERIFY_CHECKS = (
    ("must_formula_agreement", "trials", "check_must_formula"),
    ("must_test_agreement", "trials", "check_must_test"),
    ("may_formula_agreement", "trials", "check_may_formula"),
    ("may_test_agreement", "trials", "check_may_test"),
    ("bekic_equivalence", "property_trials", "check_bekic"),
    ("fixpoint_prefix_property", "property_trials", "check_prefix_property"),
    ("fixpoint_unfolding", "property_trials", "check_unfolding"),
    ("approximant_chain", "property_trials", "check_approximants"),
    ("divergence_collapse", "property_trials", "check_divergence_collapse"),
    ("open_min_not_full", "property_trials", "check_open_min"),
    ("acc_equivalence", "property_trials", "check_acc_equivalence"),
    ("unfold_law", "property_trials", "check_unfold_law"),
    ("must_implies_may", "property_trials", "check_must_implies_may"),
    ("tt_grammar_semantic", "property_trials", "check_tt_grammar"),
)


@dataclass
class Query:
    """One CLI call.  kind selects the answer checker; key names the
    expectation it is checked against."""

    kind: str
    argv: list
    key: str


@dataclass
class Inputs:
    files: dict = field(default_factory=dict)  # file name -> text
    queries: list = field(default_factory=list)
    model: dict = field(default_factory=dict)  # plain data for the reference
    shape: dict = field(default_factory=dict)  # sizes, for the record


# -- systems ------------------------------------------------------------------
# A system is {"states": [names], "edges": [(src, label, dst)], "init": name}
# with labels "tau", "omega" or a letter.


def lts_text(system, name) -> str:
    lines = [f"lts {name}"]
    if system.get("init"):
        lines.append(f"init {system['init']}")
    if system.get("alphabet"):
        lines.append("alphabet " + " ".join(system["alphabet"]))
    lines.extend(f"state {s}" for s in system["states"])
    lines.extend(f"{src} {label} {dst}" for src, label, dst in system["edges"])
    return "\n".join(lines) + "\n"


def _declare(rng, names):
    """States are declared in shuffled order, so the interned index order
    says nothing about the structure."""
    order = list(names)
    rng.shuffle(order)
    return order


def tangle(rng, n, cycle):
    """Tau-heavy system: states in blocks of `cycle`.  Blocks come in
    pairs; the first of a pair is a tau path feeding the second, which is
    a tau cycle (divergent) or a tau path (convergent).  Every state also
    has two visible moves to random states, so about a third of all moves
    are silent."""
    names = [f"s{i}" for i in range(n)]
    perm = list(range(n))
    rng.shuffle(perm)
    edges = []
    blocks = [perm[i:i + cycle] for i in range(0, n, cycle)]
    for k, block in enumerate(blocks):
        for a, b in zip(block, block[1:]):
            edges.append((a, "tau", b))
        if k % 2 == 0 and k + 1 < len(blocks):
            edges.append((block[-1], "tau", blocks[k + 1][0]))
        elif k % 4 == 1 and len(block) > 1:
            edges.append((block[-1], "tau", block[0]))
    for i in range(n):
        for _ in range(2):
            edges.append((i, rng.choice(LETTERS), rng.randrange(n)))
    edges = list(dict.fromkeys(edges))
    return {"states": _declare(rng, names), "alphabet": list(LETTERS),
            "edges": [(names[s], label, names[d]) for s, label, d in edges]}


def ring(rng, n):
    """Long-diameter system: an a-ring of 9n/10 states with a single b
    move, sparse tau shortcuts, and c-exits into an a-path of n/10 states
    that ends in deadlock.  Reaching the b move takes up to n steps, so a
    fixpoint takes about n iterations."""
    trap = max(2, n // 10)
    size = n - trap
    names = [f"r{i}" for i in range(size)] + [f"d{i}" for i in range(trap)]
    edges = [(f"r{i}", "a", f"r{(i + 1) % size}") for i in range(size)]
    goal = rng.randrange(size)
    edges.append((f"r{goal}", "b", f"r{(goal + 1) % size}"))
    for i in rng.sample(range(size), max(1, size // 30)):
        edges.append((f"r{i}", "tau", f"r{(i + 1) % size}"))
    for i in rng.sample(range(size), max(1, size // 10)):
        edges.append((f"r{i}", "c", "d0"))
    edges.extend((f"d{i}", "a", f"d{i + 1}") for i in range(trap - 1))
    return {"states": _declare(rng, names), "alphabet": list(LETTERS), "edges": edges,
            "ring": [f"r{i}" for i in range(size)], "trap": [f"d{i}" for i in range(trap)]}


def process(rng, n, tau=0.05):
    """Low-tau process: two visible moves per state to random states, a
    tau move with probability `tau`, initial state p0."""
    names = [f"p{i}" for i in range(n)]
    edges = []
    for i in range(n):
        for _ in range(2):
            edges.append((names[i], rng.choice(LETTERS), names[rng.randrange(n)]))
        if rng.random() < tau:
            edges.append((names[i], "tau", names[rng.randrange(n)]))
    edges = list(dict.fromkeys(edges))
    return {"states": names, "alphabet": list(LETTERS), "edges": edges, "init": "p0"}


def small_process(rng, n):
    """Pool member for checking compiled formulas: few states, some tau,
    sometimes a divergent tau loop."""
    names = [f"u{i}" for i in range(n)]
    edges = []
    for i in range(n):
        for _ in range(rng.randint(0, 3)):
            label = "tau" if rng.random() < 0.25 else rng.choice(LETTERS)
            edges.append((names[i], label, names[rng.randrange(n)]))
    if rng.random() < 0.5:
        loop = rng.choice(names)
        edges.append((loop, "tau", loop))
    edges = list(dict.fromkeys(edges))
    return {"states": names, "alphabet": list(LETTERS), "edges": edges}


def dense_test(rng, n):
    """Test LTS on n states with a move between every ordered pair of
    distinct states, plus visible moves from two of them into a success
    sink.  Only the labels are random."""
    names = [f"q{i}" for i in range(n)] + ["ok"]
    edges = []
    for i in range(n):
        for j in range(n):
            if i != j:
                edges.append((f"q{i}", rng.choice(LETTERS + ("tau",)), f"q{j}"))
        if i in (n // 2, n - 1):
            edges.append((f"q{i}", rng.choice(LETTERS), "ok"))
    edges.append(("ok", "omega", "ok"))
    return {"states": names, "edges": edges, "init": "q0"}


# -- terms and formulas ---------------------------------------------------------
# Test terms: ("nil",) ("w",) ("var", X) ("pre", label, t) ("sum", t, u) ("mu", X, t)
# Formulas: ("tt",) ("ff",) ("var", X) ("dia", label, f) ("box", label, f)
#           ("and", f, g) ("or", f, g) ("acc", letters) ("min", X, f) ("max", X, f)


def test_text(t) -> str:
    match t:
        case ("nil",):
            return "0"
        case ("w",):
            return "w.0"
        case ("var", name):
            return name
        case ("pre", label, body):
            return f"{label}.{test_text(body)}"
        case ("sum", left, right):
            return f"({test_text(left)} + {test_text(right)})"
        case ("mu", var, body):
            return f"(mu {var}. {test_text(body)})"
    raise ValueError(t)


def formula_text(f) -> str:
    match f:
        case ("tt",):
            return "tt"
        case ("ff",):
            return "ff"
        case ("var", name):
            return name
        case ("dia", label, body):
            return f"<{label}>{formula_text(body)}"
        case ("box", label, body):
            return f"[{label}]{formula_text(body)}"
        case ("and", left, right):
            return f"({formula_text(left)} /\\ {formula_text(right)})"
        case ("or", left, right):
            return f"({formula_text(left)} \\/ {formula_text(right)})"
        case ("acc", letters):
            return "Acc{" + ",".join(sorted(letters)) + "}"
        case ("min" | "max" as word, var, body):
            return f"({word} {var}. {formula_text(body)})"
    raise ValueError(f)


def recursive_test(rng, depth, chain):
    """Nested recursion: level i is mu Xi. (c_1...c_chain.(level i+1 + Xj)
    + c.c.exit) with j = i // 2 and exit w.0 on even levels, Xi on odd
    ones.  Only the letters are random, so the explored state count (about
    depth * (chain + 2)) and the cost do not depend on the seed."""
    def prefixes(length, tail):
        for _ in range(length):
            tail = ("pre", rng.choice(LETTERS), tail)
        return tail

    def level(i):
        back = ("var", f"X{i // 2}")
        inner = ("sum", back, ("w",)) if i == depth - 1 else ("sum", level(i + 1), back)
        exit_ = ("w",) if i % 2 == 0 else ("var", f"X{i}")
        return ("mu", f"X{i}", ("sum", prefixes(chain, inner), prefixes(2, exit_)))

    return level(0)


def permissive_test(levels, variant):
    """Nested recursion in which every state offers all three letters:
    level i is mu Xi. (x.(level i+1) + y.X(i//2) + z.Xi), and the last
    level ends in z.w.0, where (x, y, z) is the variant-th ordering of
    the alphabet.  Since the test never refuses a letter, the experiment
    follows the process everywhere and reaches about (process states) x
    (test states) configurations.  All variants have the same shape, so
    every query costs about the same; the terms do not depend on the
    seed, only the processes do."""
    x, y, z = list(itertools.permutations(LETTERS))[variant]

    def level(i):
        deeper = level(i + 1) if i + 1 < levels else ("var", f"X{i // 2}")
        last = ("w",) if i + 1 == levels else ("var", f"X{i}")
        arms = ("sum", ("sum", ("pre", x, deeper), ("pre", y, ("var", f"X{i // 2}"))),
                ("pre", z, last))
        return ("mu", f"X{i}", arms)

    return level(0)


TANGLE_FORMULAS = (
    ("box", "a", ("dia", "b", ("tt",))),
    ("or", ("dia", "tau", ("acc", ("a", "b"))), ("box", "c", ("ff",))),
    ("min", "X", ("or", ("dia", "c", ("tt",)), ("dia", "tau", ("var", "X")))),
    ("dia", "a", ("dia", "b", ("dia", "c", ("tt",)))),
)

RING_FORMULAS = (
    ("min", "X", ("or", ("dia", "b", ("tt",)), ("dia", "a", ("var", "X")))),
    ("max", "Y", ("min", "X", ("or", ("dia", "b", ("var", "Y")), ("dia", "a", ("var", "X"))))),
    ("min", "X", ("or", ("dia", "b", ("tt",)),
                  ("and", ("box", "a", ("var", "X")), ("dia", "a", ("tt",))))),
)


# -- workloads --------------------------------------------------------------------


def _check(rng, size, inputs):
    jobs = []
    for k, n in enumerate(size["tangle_states"]):
        jobs.append(("tangle", f"tangle{k}", tangle(rng, n, size["tau_cycle"])))
    for k, n in enumerate(size["ring_states"]):
        jobs.append(("ring", f"ring{k}", ring(rng, n)))
    for k, f in enumerate(TANGLE_FORMULAS + RING_FORMULAS):
        inputs.files[f"f{k}.txt"] = formula_text(f) + "\n"
        inputs.model.setdefault("formulas", {})[f"f{k}.txt"] = f
    per_shape = {"tangle": [], "ring": []}
    for shape, name, system in jobs:
        inputs.files[f"{name}.lts"] = lts_text(system, name)
        inputs.model.setdefault("systems", {})[f"{name}.lts"] = system
        offset = 0 if shape == "tangle" else len(TANGLE_FORMULAS)
        count = len(TANGLE_FORMULAS) if shape == "tangle" else len(RING_FORMULAS)
        # every formula equally often, so the mix of query costs is the same for every seed
        for k in range(size[f"{shape}_rounds"] * count):
            if shape == "ring" and k % 3 == 2:
                state = rng.choice(system["trap"])
            else:
                state = rng.choice(system.get("ring") or system["states"])
            formula = f"f{offset + k % count}.txt"
            key = f"{name}.lts|{state}|{formula}"
            per_shape[shape].append(Query("check", ["check", f"{name}.lts", state, formula], key))
    # interleave the two shapes so that neither sits at one end of a pass
    tangles, rings = per_shape["tangle"], per_shape["ring"]
    rng.shuffle(tangles)
    rng.shuffle(rings)
    for k in range(max(len(tangles), len(rings))):
        inputs.queries.extend(q[k] for q in (tangles, rings) if k < len(q))
    inputs.shape = {"tangle": f"{size['tangle_states']} states, tau blocks of "
                              f"{size['tau_cycle']}, formulas f0-f{len(TANGLE_FORMULAS) - 1}",
                    "ring": f"{size['ring_states']} states, one b goal, "
                            f"formulas f{len(TANGLE_FORMULAS)}-f{len(TANGLE_FORMULAS) + len(RING_FORMULAS) - 1}",
                    "queries_per_pass": len(inputs.queries)}


def _testing(rng, size, inputs):
    tests = []
    for k in range(size["tests"]):
        term = permissive_test(size["test_levels"], k)
        inputs.files[f"t{k}.txt"] = test_text(term) + "\n"
        inputs.model.setdefault("tests", {})[f"t{k}.txt"] = term
        tests.append(f"t{k}.txt")
    for k, n in enumerate(size["process_states"]):
        system = process(rng, n)
        inputs.files[f"proc{k}.lts"] = lts_text(system, f"proc{k}")
        inputs.model.setdefault("systems", {})[f"proc{k}.lts"] = system
        for test in tests:
            for verb in ("may", "must"):
                key = f"proc{k}.lts|{test}"
                inputs.queries.append(Query(verb, [verb, f"proc{k}.lts", "p0", test, "--witness"], key))
    rng.shuffle(inputs.queries)
    inputs.shape = {"processes": f"{size['process_states']} states, 5% tau",
                    "tests": f"{size['tests']} recursive terms offering a, b and c, "
                             f"{size['test_levels']} levels",
                    "queries_per_pass": len(inputs.queries)}


def _compile(rng, size, inputs):
    for k in range(size["pool"]):
        system = small_process(rng, size["pool_states"])
        inputs.model.setdefault("pool", []).append(system)
    tests = []
    for k, chain in enumerate(size["term_chain"]):
        term = recursive_test(rng, size["term_depth"], chain)
        inputs.files[f"term{k}.txt"] = test_text(term) + "\n"
        inputs.model.setdefault("tests", {})[f"term{k}.txt"] = term
        tests.append(f"term{k}.txt")
    for k in range(size["dense"]):
        system = dense_test(rng, size["dense_states"])
        inputs.files[f"dense{k}.lts"] = lts_text(system, f"dense{k}")
        inputs.model.setdefault("tests", {})[f"dense{k}.lts"] = system
        tests.append(f"dense{k}.lts")
    for test in tests:
        for mode in ("must", "may"):
            for show in (False, True):
                argv = ["compile-test", "--mode", mode, "--test", test]
                if show:
                    argv.append("--show-system")
                inputs.queries.append(Query("compile", argv, f"{test}|{mode}"))
    rng.shuffle(inputs.queries)
    inputs.shape = {"terms": f"{len(size['term_chain'])} recursive terms, {size['term_depth']} "
                             f"levels of chains of {size['term_chain']} prefixes",
                    "dense": f"{size['dense']} complete test LTSs of {size['dense_states']} states "
                             f"plus a success sink",
                    "pool": f"{size['pool']} processes of {size['pool_states']} states",
                    "queries_per_pass": len(inputs.queries)}


def _verify(seed, size, inputs):
    for k in range(size["queries"]):
        argv = ["verify", "--seed", str(seed * 100 + k), "--trials", str(size["trials"]),
                "--property-trials", str(size["property_trials"])]
        key = "{}-{trials}-{property_trials}".format(seed * 100 + k, **size)
        inputs.queries.append(Query("verify", argv, key))
    inputs.model["trials"] = size["trials"]
    inputs.model["property_trials"] = size["property_trials"]
    inputs.shape = {"argv": "verify --seed 100*S+k --trials {trials} --property-trials "
                            "{property_trials}, k < {queries}".format(**size),
                    "queries_per_pass": len(inputs.queries)}


# One tiny query per CLI verb, run at the end of every traced pass, so
# that every layer is entered on every workload and a layer the workload
# does not use reads a small measured time instead of 0.  Each key is the
# expected exit code and first output line (empty: not checked); the
# verify report is checked like the verify workload's.
PROBE_LTS = "lts probe\ninit s0\ns0 a s1\ns1 tau s0\ns1 b s2\n"
PROBE = (
    (["check", "probe.lts", "s0", "<a><b>tt"], "0|sat=true"),
    (["may", "probe.lts", "s0", "a.b.w.0", "--witness"], "0|may=true must=false"),
    (["must", "probe.lts", "s0", "a.b.w.0", "--witness"], "1|may=true must=false"),
    (["compile-formula", "--mode", "must", "--formula", "[a]ff"], "0|a.0 + tau.w.0"),
    (["compile-test", "--mode", "may", "--test", "a.w.0", "--show-system"], "0|"),
    (["verify", "--trials", "1", "--property-trials", "1"], "0|"),
)


def probe(directory) -> list:
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, "probe.lts")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(PROBE_LTS)
    return [Query("probe", [path if a == "probe.lts" else a for a in argv], key)
            for argv, key in PROBE]


# The parts of the cli workload: each makes its own files and queries.
# Their file names and expectation keys do not overlap.
CLI_PARTS = {"check": _check, "testing": _testing, "compile": _compile}


def _cli(seed, scale, inputs):
    """The check, testing and compile parts in one pass, interleaved so
    that each part is spread evenly over the pass."""
    order = []
    for name, build in CLI_PARTS.items():
        part = Inputs()
        build(random.Random(f"{name}:{seed}"), SIZES[scale][name], part)
        inputs.files.update(part.files)
        for key, value in part.model.items():
            if isinstance(value, dict):
                inputs.model.setdefault(key, {}).update(value)
            else:
                inputs.model[key] = value
        inputs.shape[name] = part.shape
        order += [((k + 0.5) / len(part.queries), name, q) for k, q in enumerate(part.queries)]
    inputs.queries = [q for _, _, q in sorted(order, key=lambda item: item[:2])]
    inputs.shape["queries_per_pass"] = len(inputs.queries)


def generate(workload: str, seed: int, scale: str = "full") -> Inputs:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    inputs = Inputs()
    if workload == "cli":
        _cli(seed, scale, inputs)
    else:
        _verify(seed, SIZES[scale]["verify"], inputs)
    return inputs


def write(inputs: Inputs, directory: str) -> list:
    """Write the input files and return the queries with file arguments
    made absolute."""
    os.makedirs(directory, exist_ok=True)
    for name, text in inputs.files.items():
        with open(os.path.join(directory, name), "w", encoding="utf-8") as handle:
            handle.write(text)
    out = []
    for q in inputs.queries:
        argv = [os.path.join(directory, a) if a in inputs.files else a for a in q.argv]
        out.append(Query(q.kind, argv, q.key))
    return out
