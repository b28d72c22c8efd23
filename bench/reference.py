"""Independent reference answers and the answer checks.

Nothing here imports rechml.  Systems are plain adjacency lists over
Python sets, and the algorithms are deliberately different from the
program's:

- modalities are backward searches (pre-images under tau* and a), not
  forward weak-derivative rows;
- convergence is computed by peeling states whose tau moves all lead to
  peeled states, not from tau closures;
- test terms are explored with de Bruijn indices instead of renamed
  binders;
- a must verdict is "no unsuccessful deadlock or cycle is reachable
  without passing success", not a backward counting fixpoint.

Run as a script, it computes the expected answers for one
(workload, seed, scale) and writes them as JSON, so the benchmark can do
this in a separate process whose memory does not count towards its own.
"""

import json
import os
import re
import sys
from collections import deque

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402


class System:
    """A finite system over state indices, with successor and predecessor
    lists per label."""

    def __init__(self, data):
        names = list(data["states"])
        for src, _, dst in data["edges"]:
            names.extend((src, dst))
        self.names = list(dict.fromkeys(names))
        self.index = {name: i for i, name in enumerate(self.names)}
        self.n = len(self.names)
        self.post = {}
        self.pre = {}
        for src, label, dst in dict.fromkeys(data["edges"]):
            if label not in self.post:
                self.post[label] = [[] for _ in range(self.n)]
                self.pre[label] = [[] for _ in range(self.n)]
            s, d = self.index[src], self.index[dst]
            self.post[label][s].append(d)
            self.pre[label][d].append(s)
        for rows in (self.post, self.pre):
            rows.setdefault("tau", [[] for _ in range(self.n)])
        self.all = frozenset(range(self.n))
        self._conv = None

    def _pre(self, label, targets):
        rows = self.pre.get(label)
        if rows is None:
            return set()
        return {u for v in targets for u in rows[v]}

    def tau_reaching(self, targets):
        """States with a tau path (possibly empty) into targets."""
        rows = self.pre["tau"]
        seen = set(targets)
        stack = list(seen)
        while stack:
            for u in rows[stack.pop()]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        return seen

    def converging(self):
        """States from which every tau path is finite."""
        if self._conv is None:
            post, pre = self.post["tau"], self.pre["tau"]
            left = [len(post[i]) for i in range(self.n)]
            done = [i for i in range(self.n) if left[i] == 0]
            conv = set(done)
            while done:
                for u in pre[done.pop()]:
                    left[u] -= 1
                    if left[u] == 0:
                        conv.add(u)
                        done.append(u)
            self._conv = frozenset(conv)
        return self._conv

    def dia(self, label, targets):
        if label == "tau":
            return self.tau_reaching(targets)
        return self.tau_reaching(self._pre(label, self.tau_reaching(targets)))

    def box(self, label, targets):
        return self.converging() - self.dia(label, self.all - set(targets))

    def acc(self, letters):
        able = set()
        for a in letters:
            able |= self.dia(a, self.all)
        return self.converging() - self.tau_reaching(self.all - able)


def evaluate(system: System, f, env=None):
    """Denotation of a formula (tuple form, see workloads) as a set of
    state indices.  Fixpoints by Kleene iteration, restarted from scratch
    every time."""
    env = env or {}
    match f:
        case ("tt",):
            return set(system.all)
        case ("ff",):
            return set()
        case ("var", name):
            return set(env[name])
        case ("dia", label, body):
            return system.dia(label, evaluate(system, body, env))
        case ("box", label, body):
            return system.box(label, evaluate(system, body, env))
        case ("and", left, right):
            return evaluate(system, left, env) & evaluate(system, right, env)
        case ("or", left, right):
            return evaluate(system, left, env) | evaluate(system, right, env)
        case ("acc", letters):
            return system.acc(letters)
        case ("min" | "max" as word, var, body):
            current = set() if word == "min" else set(system.all)
            while True:
                nxt = evaluate(system, body, {**env, var: current})
                if nxt == current:
                    return current
                current = nxt
    raise ValueError(f)


# -- tests ------------------------------------------------------------------------


def _de_bruijn(t, scope=()):
    match t:
        case ("var", name):
            return ("idx", scope.index(name))
        case ("pre", label, body):
            return ("pre", label, _de_bruijn(body, scope))
        case ("sum", left, right):
            return ("sum", _de_bruijn(left, scope), _de_bruijn(right, scope))
        case ("mu", var, body):
            return ("mu", _de_bruijn(body, (var,) + scope))
    return t


def _subst(t, k, closed):
    match t:
        case ("idx", j):
            return closed if j == k else t
        case ("pre", label, body):
            return ("pre", label, _subst(body, k, closed))
        case ("sum", left, right):
            return ("sum", _subst(left, k, closed), _subst(right, k, closed))
        case ("mu", body):
            return ("mu", _subst(body, k + 1, closed))
    return t


def _moves(t):
    match t:
        case ("w",):
            return [("omega", ("nil",))]
        case ("pre", label, body):
            return [(label, body)]
        case ("sum", left, right):
            return _moves(left) + _moves(right)
        case ("mu", body):
            return [("tau", _subst(body, 0, t))]
    return []


class TestSystem:
    """Named test states with their moves (label, target index), as the
    program names them: t0, t1, ... in breadth-first discovery order for a
    term, the file's names for an LTS."""

    def __init__(self, names, moves):
        self.names = names
        self.index = {name: i for i, name in enumerate(names)}
        self.moves = moves
        self.success = {i for i, ms in enumerate(moves) if any(lb == "omega" for lb, _ in ms)}

    @classmethod
    def from_term(cls, term):
        root = _de_bruijn(term)
        ids = {root: 0}
        queue = [root]
        moves = []
        for current in queue:
            out = []
            for label, target in _moves(current):
                if target not in ids:
                    ids[target] = len(queue)
                    queue.append(target)
                out.append((label, ids[target]))
            moves.append(list(dict.fromkeys(out)))
        return cls([f"t{i}" for i in range(len(queue))], moves)

    @classmethod
    def from_lts(cls, data):
        system = System(data)
        moves = [[] for _ in range(system.n)]
        for label, rows in system.post.items():
            for i, row in enumerate(rows):
                moves[i].extend((label, j) for j in row)
        return cls(system.names, moves)


def test_system(model_test):
    if isinstance(model_test, dict):
        return TestSystem.from_lts(model_test)
    return TestSystem.from_term(model_test)


def successors(proc: System, test: TestSystem, config):
    p, t = config
    out = [(q, t) for q in proc.post["tau"][p]]
    for label, u in test.moves[t]:
        if label == "tau":
            out.append((p, u))
        elif label != "omega" and label in proc.post:
            out.extend((q, u) for q in proc.post[label][p])
    return out


def experiment(proc: System, test: TestSystem, p0: int, t0: int = 0):
    """(may, must) for process state p0 against test state t0."""
    root = (p0, t0)
    seen = {root}
    queue = deque([root])
    may = False
    while queue and not may:
        c = queue.popleft()
        if c[1] in test.success:
            may = True
        for d in successors(proc, test, c):
            if d not in seen:
                seen.add(d)
                queue.append(d)
    if t0 in test.success:
        return may, True
    # unsuccessful configurations reachable without passing success
    succ = {root: successors(proc, test, root)}
    queue = deque([root])
    while queue:
        c = queue.popleft()
        for d in succ[c]:
            if d[1] not in test.success and d not in succ:
                succ[d] = successors(proc, test, d)
                queue.append(d)
    if any(not ds for ds in succ.values()):
        return may, False
    indegree = dict.fromkeys(succ, 0)
    for ds in succ.values():
        for d in ds:
            if d in indegree:
                indegree[d] += 1
    ready = [c for c, k in indegree.items() if k == 0]
    peeled = 0
    while ready:
        c = ready.pop()
        peeled += 1
        for d in succ[c]:
            if d in indegree:
                indegree[d] -= 1
                if indegree[d] == 0:
                    ready.append(d)
    return may, peeled == len(succ)


# -- expected answers ---------------------------------------------------------------


def expectations(workload, seed, scale="full"):
    """Expected answer of every query of the workload, by query key."""
    inputs = workloads.generate(workload, seed, scale)
    model = inputs.model
    systems = {k: System(v) for k, v in model.get("systems", {}).items()}
    tests = {k: test_system(v) for k, v in model.get("tests", {}).items()}
    pool = [System(p) for p in model.get("pool", [])]
    denotations = {}
    out = {}
    for q in inputs.queries:
        if q.key in out:
            continue
        if q.kind == "check":
            file, state, formula = q.key.split("|")
            system = systems[file]
            if (file, formula) not in denotations:
                denotations[file, formula] = evaluate(system, model["formulas"][formula])
            out[q.key] = system.index[state] in denotations[file, formula]
        elif q.kind in ("may", "must"):
            file, test = q.key.split("|")
            proc = systems[file]
            may, must = experiment(proc, tests[test], proc.index["p0"])
            out[q.key] = {"may": may, "must": must}
        elif q.kind == "compile":
            test, mode = q.key.split("|")
            tsys = tests[test]
            verdicts = [[experiment(p, tsys, i)[mode == "must"] for i in range(p.n)]
                        for p in pool]
            out[q.key] = {"states": len(tsys.names), "verdicts": verdicts}
    return out


# -- answer checks -------------------------------------------------------------------
# Each check returns None for a correct answer, or a one-line reason.


def _bool(value):
    return "true" if value else "false"


def check_check(expected, code, out):
    want = f"sat={_bool(expected)}"
    if out.strip() != want or code != (0 if expected else 1):
        return f"got exit {code} and {out.strip()!r}, expected {want!r}"
    return None


_CONFIG = re.compile(r"\((\w+)\|(\w+)\)$")


def _path(lines, proc, test):
    path = []
    for line in lines:
        m = _CONFIG.match(line)
        if not m or m.group(1) not in proc.index or m.group(2) not in test.index:
            return None
        path.append((proc.index[m.group(1)], test.index[m.group(2)]))
    return path


def check_testing(verb, expected, code, out, proc, test):
    lines = out.splitlines()
    head = f"may={_bool(expected['may'])} must={_bool(expected['must'])}"
    if not lines or lines[0] != head:
        return f"verdicts {lines[:1]}, expected {head!r}"
    verdict = expected[verb]
    if code != (0 if verdict else 1):
        return f"exit {code} for {verb}={_bool(verdict)}"
    body = lines[1:]
    word = "witness" if verb == "may" else "counterexample"
    if verdict == (verb == "must"):
        return None if body == [f"{word} none"] else f"expected '{word} none', got {body[:2]}"
    if not body or body[0] != word:
        return f"missing {word}"
    ending = None if verb == "may" else (body.pop() if len(body) > 1 else "")
    path = _path(body[1:], proc, test)
    if not path or path[0] != (proc.index["p0"], 0):
        return f"{word} does not start at the root"
    for a, b in zip(path, path[1:]):
        if b not in successors(proc, test, a):
            return f"{word} step {a} -> {b} is not a move"
    if verb == "may":
        return None if path[-1][1] in test.success else "witness ends unsuccessful"
    if any(c[1] in test.success for c in path):
        return "counterexample passes a success configuration"
    if ending == "deadlock":
        return None if not successors(proc, test, path[-1]) else "counterexample ends in a live configuration"
    m = re.fullmatch(r"loops to (\d+)", ending)
    if m and int(m.group(1)) < len(path) - 1 and path[int(m.group(1))] == path[-1]:
        return None
    return f"counterexample ends with {ending!r}"


_SYSTEM_LINE = re.compile(r"X_\w+ = \S")


def check_compile(expected, code, out, show_system, denote):
    """denote(formula_text) gives, per pool process, the verdict of every
    state; it is the only use of the program in a check."""
    lines = out.splitlines()
    if code != 0 or not lines:
        return f"exit {code} with {len(lines)} lines"
    system = lines[:-1]
    if len(system) != (expected["states"] if show_system else 0):
        return f"{len(system)} system lines for {expected['states']} test states"
    if not all(_SYSTEM_LINE.match(line) for line in system):
        return "malformed system line"
    got = denote(lines[-1])
    if got != expected["verdicts"]:
        return "compiled formula disagrees with the reference verdicts"
    return None


def check_verify(code, out, checks, trials, property_trials):
    lines = out.splitlines()
    if code != 0 or len(lines) != len(checks) + 2:
        return f"exit {code} with {len(lines)} report lines"
    head = lines[0].split()
    if head[:1] != ["verify"] or f"trials={trials}" not in head or \
            f"property_trials={property_trials}" not in head:
        return f"unexpected header {lines[0]!r}"
    for line, (name, kind, _) in zip(lines[1:], checks):
        count = trials if kind == "trials" else property_trials
        words = line.split()
        if words[:4] != ["check", f"name={name}", f"trials={count}", "failures=0"]:
            return f"unexpected check line {line!r}"
    if lines[-1] != f"summary checks={len(checks)} failures=0 verdict=pass":
        return f"unexpected summary {lines[-1]!r}"
    return None


if __name__ == "__main__":
    workload, seed, scale, target = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4]
    answers = expectations(workload, seed, scale)
    with open(target + ".tmp", "w", encoding="utf-8") as handle:
        json.dump(answers, handle)
    os.replace(target + ".tmp", target)
