"""Benchmark for rechml: one workload, one seed, one process.

    python3 bench/run.py --workload cli --seed 1 --seconds 50 --trace 0

Workloads (see bench/README.md): verify and cli (check, may/must and
compile-test queries interleaved).  The
inputs are generated from the seed, written under .bench_work/, and every
query goes through ``rechml.cli.main(argv)`` in this process, one after
another (a closed loop with one client), with stdout captured.  Every
answer is checked against an independent reference computed beforehand
in a child process (bench/reference.py) and cached per seed; the checks
run after the last pass, once the peak RSS has been read.

The fixed query list is run in passes until the next pass would end past
--seconds.  With --trace 0 the run reports the end-to-end metrics, and
the set-up is repeated every ten queries; with --trace 1 it alternates
untraced and traced passes and reports per-layer metrics from the traced
ones (bench/spans.py).  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.

Every time is reported at a fixed machine speed: each query and set-up is
preceded by a short fixed calibration loop (calibrate()), and its time is
scaled by CAL_REF_S over that loop's time.
"""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
import zlib
from dataclasses import dataclass, field
from functools import cached_property

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import reference  # noqa: E402
import workloads  # noqa: E402

WORK = os.path.join(ROOT, ".bench_work")
# An untraced run sets up again after every SETUP_EVERY queries (outside
# their time), and at least SETUP_REPEATS times in all, so that setup_s
# samples the machine's speed across the run as the latencies do.
SETUP_EVERY = 10
SETUP_REPEATS = 5
# A query running past its limit counts as failed; at the seed commit no
# query takes a second.
QUERY_LIMIT_S = {"verify": 60.0, "cli": 10.0}
# The shared host's speed changes by up to 70% from one second to the
# next, in CPU time as much as in wall time.  A loop of dict, list, str and
# sort work like the interpreter's in rechml tracks those changes: a time
# scaled by CAL_REF_S over the loop's time just before it is the time at
# the speed where the loop takes CAL_REF_S (about this 2-CPU host's fast
# state).  Within a run this cuts the spread of pass times from about 0.2
# to 0.03.
CAL_REF_S = 0.002

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "query_p50_ms": "ms",
                    "query_p90_ms": "ms", "peak_rss_mb": "MB"}
LADDER = (50, 75, 90, 95, 99, 99.9)


class QueryTimeout(BaseException):
    """Raised by the alarm; a BaseException so that the CLI's own error
    handling cannot swallow it."""


def percentile(values, p):
    """p-th percentile by linear interpolation between closest ranks."""
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def tail_percentile(n):
    """Highest percentile of LADDER that still has at least ten of n
    samples above its rank, or None when even the median has not."""
    best = None
    for p in LADDER:
        if n - math.ceil(n * p / 100) >= 10:
            best = p
    return best


def _source_digest():
    digest = hashlib.sha256()
    for name in ("workloads.py", "reference.py"):
        with open(os.path.join(BENCH, name), "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()[:12]


def _import_rechml():
    """Fresh import of the package from this checkout's src/."""
    for name in [m for m in sys.modules if m == "rechml" or m.startswith("rechml.")]:
        del sys.modules[name]
    src = os.path.join(ROOT, "src")
    if sys.path[0] != src:
        sys.path.insert(0, src)
    import rechml.cli

    if not os.path.abspath(rechml.cli.__file__).startswith(src + os.sep):
        raise RuntimeError(f"imported rechml from {rechml.cli.__file__}, not from {src}")
    return rechml.cli


def _settle():
    """Collect garbage, then move everything alive out of the collector's
    reach: a CLI process would not rescan the benchmark's inputs and
    reference data on every full collection."""
    gc.unfreeze()
    gc.collect()
    gc.freeze()


def calibrate():
    """Seconds taken by a fixed loop of interpreter work, with the garbage
    collector off so that the loop's work does not depend on the heap."""
    gc.disable()
    start = time.perf_counter()
    counts, pairs = {}, []
    for i in range(4000):
        k = i * 7919 % 257
        counts[k] = counts.get(k, 0) + 1
        pairs.append((k, str(i)))
    frozenset(counts.items())
    sorted(pairs)
    elapsed = time.perf_counter() - start
    gc.enable()
    return elapsed


def _maxrss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _shared(node, memo, formula_cls):
    """The same formula with equal subtrees made one object.  A printed
    formula parses back as a tree; as a DAG the evaluator's per-node
    caches make checking it fast."""
    fields = [_shared(v, memo, formula_cls) if isinstance(v, formula_cls) else v
              for v in vars(node).values()]
    key = (type(node), tuple(id(v) if isinstance(v, formula_cls) else v for v in fields))
    if key not in memo:
        memo[key] = type(node)(*fields)
    return memo[key]


class Bench:
    def __init__(self, workload, seed, scale="full", work=WORK):
        self.workload = workload
        self.seed = seed
        self.scale = scale
        self.work = work
        self.dir = os.path.join(work, f"{workload}-{scale}-{seed}")
        self.tracer = None
        self.setup_times = []  # scaled to the reference speed
        self.speeds = []  # CAL_REF_S over each calibration's time

    def speed(self):
        """Reference speed over the current one, to scale the next time by."""
        self.speeds.append(CAL_REF_S / calibrate())
        return self.speeds[-1]

    def setup(self):
        """Import rechml afresh and write the inputs; the time goes to
        setup_times."""
        speed = self.speed()
        start = time.perf_counter()
        self.cli = _import_rechml()
        self.inputs = workloads.generate(self.workload, self.seed, self.scale)
        self.queries = workloads.write(self.inputs, self.dir)
        self.setup_times.append((time.perf_counter() - start) * speed)

    def load_expected(self):
        """Reference answers, computed in a child process and cached per
        seed."""
        self.expected = {}
        if self.workload != "verify":
            path = os.path.join(self.work, f"ref-{self.workload}-{self.scale}-{self.seed}-"
                                           f"{_source_digest()}.json")
            if not os.path.exists(path):
                subprocess.run([sys.executable, os.path.join(BENCH, "reference.py"), self.workload,
                                str(self.seed), self.scale, path],
                               check=True, timeout=150, stdout=subprocess.DEVNULL)
            with open(path, encoding="utf-8") as handle:
                self.expected = json.load(handle)
        self.denoted = {}

    # -- answer checks (after the last pass) -------------------------------------

    @cached_property
    def refs(self):
        """Reference processes and tests of the testing checks."""
        model = self.inputs.model
        return ({k: reference.System(v) for k, v in model.get("systems", {}).items()},
                {k: reference.test_system(v) for k, v in model.get("tests", {}).items()})

    def _denote(self, text):
        """Verdicts of a compiled formula on the pool processes, by the
        program's own parser and evaluator (outside every timed region)."""
        key = hashlib.sha256(text.encode()).hexdigest()
        if key not in self.denoted:
            from rechml.formulas import Formula
            from rechml.semantics import interpret
            from rechml.textio import parse_formula, parse_lts

            formula = _shared(parse_formula(text), {}, Formula)
            out = []
            for member in self.inputs.model["pool"]:
                lts, _ = parse_lts(workloads.lts_text(member, "pool"))
                mask = interpret(lts, formula)
                out.append([bool(mask >> lts.state_index(s) & 1) for s in member["states"]])
            self.denoted[key] = out
        return self.denoted[key]

    def check(self, q, code, out):
        if q.kind == "probe":
            if q.argv[0] == "verify":
                return reference.check_verify(code, out, workloads.VERIFY_CHECKS, 1, 1)
            want_code, first = q.key.split("|")
            lines = out.splitlines()
            if code != int(want_code) or not lines or first not in ("", lines[0]):
                return f"got exit {code} and {lines[:1]}, expected {q.key!r}"
            return None
        if q.kind == "check":
            return reference.check_check(self.expected[q.key], code, out)
        if q.kind in ("may", "must"):
            file, test = q.key.split("|")
            systems, tests = self.refs
            return reference.check_testing(q.kind, self.expected[q.key], code, out,
                                           systems[file], tests[test])
        if q.kind == "compile":
            return reference.check_compile(self.expected[q.key], code, out,
                                           "--show-system" in q.argv, self._denote)
        model = self.inputs.model
        error = reference.check_verify(code, out, workloads.VERIFY_CHECKS,
                                       model["trials"], model["property_trials"])
        if error is None:
            digest = hashlib.sha256(out.encode()).hexdigest()
            path = os.path.join(self.work, f"verify-{self.scale}-{q.key}.sha256")
            if os.path.exists(path):
                with open(path, encoding="utf-8") as handle:
                    if handle.read().strip() != digest:
                        error = "report digest differs from an earlier run of this seed"
            else:
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(digest + "\n")
        return error

    # -- running -----------------------------------------------------------------

    def execute(self, q, traced):
        """Run one query; returns (seconds, exit code, output, error),
        the error being None unless the query raised or timed out.  The
        seconds are measured, not scaled."""
        out, err = io.StringIO(), io.StringIO()
        code, error = None, None
        if traced:
            self.tracer.install()
            self.tracer.rec.open("cli.query")
        signal.setitimer(signal.ITIMER_REAL, QUERY_LIMIT_S[self.workload])
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(list(q.argv))
        except SystemExit as exc:
            code = exc.code
        except QueryTimeout:
            error = f"over the {QUERY_LIMIT_S[self.workload]} s limit"
        except Exception as exc:  # a crash is a failed query, not a failed run
            error = f"raised {exc!r}"
        finally:
            elapsed = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
            if traced:
                while self.tracer.rec.stack:
                    self.tracer.rec.close()
                self.tracer.uninstall()
        return elapsed, code, out.getvalue(), error

    def run(self, seconds, trace):
        """Passes over the query list until the next one would end after
        `seconds`.  Without trace, the set-up is repeated every SETUP_EVERY
        queries (outside their time).  With trace, passes alternate
        untraced and traced, and each traced pass ends with the probe
        queries (not in its time).

        Outputs are kept by digest and checked after the last pass, once
        the peak RSS has been read: parsing a printed formula back takes
        more memory than the program needs to print it."""
        def alarm(signum, frame):
            raise QueryTimeout()

        previous = signal.signal(signal.SIGALRM, alarm)
        _settle()
        probe = []
        if trace:
            import spans

            self.tracer = spans.Tracer()
            probe = workloads.probe(self.dir)
        outcome = Outcome(rss_floor_mb=_maxrss_mb())
        answers = {}  # (kind, key, argv, exit code, output digest) -> [query, times seen]
        texts = {}  # output digest -> compressed output
        start = time.perf_counter()
        real = []  # pass durations including set-ups and bookkeeping, for the stopping rule
        traced = False
        try:
            while True:
                began = time.perf_counter()
                wall = raw = 0.0
                for i, q in enumerate(self.queries + (probe if traced else []), 1):
                    speed = self.speed()
                    elapsed, code, text, error = self.execute(q, traced)
                    if q.kind != "probe":
                        raw += elapsed
                    elapsed *= speed
                    outcome.attempted += 1
                    if not trace and i % SETUP_EVERY == 0:
                        self.setup()
                        _settle()
                    if q.kind != "probe":
                        wall += elapsed
                        if not traced:
                            outcome.latencies.append(elapsed)
                            outcome.by_kind.setdefault(q.kind, []).append(elapsed)
                    if error is not None:
                        outcome.fail(q, error)
                        continue
                    data = text.encode()
                    digest = hashlib.sha256(data).digest()
                    if digest not in texts:
                        texts[digest] = zlib.compress(data, 1)
                    seen = answers.setdefault((q.kind, q.key, tuple(q.argv), code, digest), [q, 0])
                    seen[1] += 1
                outcome.walls[traced].append(wall)
                if traced:
                    # the span times are measured; scale them by the pass's factor
                    scale = wall / raw
                    outcome.layer_passes.append({k: v * scale if k.endswith("_s") else v
                                                 for k, v in self.tracer.rec.summary().items()})
                    self.tracer.new_pass()
                real.append(time.perf_counter() - began)
                done = outcome.walls[False] and (outcome.walls[True] or not trace)
                if done and time.perf_counter() - start + statistics.median(real) > seconds:
                    break
                traced = trace and not traced
        finally:
            signal.signal(signal.SIGALRM, previous)
        while not trace and len(self.setup_times) < SETUP_REPEATS:
            self.setup()
            _settle()
        outcome.peak_rss_mb = _maxrss_mb()
        for (_, _, _, code, digest), (q, count) in answers.items():
            error = self.check(q, code, zlib.decompress(texts[digest]).decode())
            if error is not None:
                outcome.fail(q, error, count)
        return outcome


@dataclass
class Outcome:
    latencies: list = field(default_factory=list)  # seconds, untraced queries
    by_kind: dict = field(default_factory=dict)  # the same, per query kind
    walls: dict = field(default_factory=lambda: {False: [], True: []})  # pass times
    layer_passes: list = field(default_factory=list)  # one summary per traced pass
    errors: list = field(default_factory=list)  # one line per failed answer
    attempted: int = 0
    failed: int = 0
    rss_floor_mb: float = 0.0  # high-water mark before the first query
    peak_rss_mb: float = 0.0  # high-water mark after the last query, before the checks

    def fail(self, q, error, count=1):
        names = " ".join(os.path.basename(a) for a in q.argv)
        self.errors.append(f"{names}: {error}" + (f" ({count} queries)" if count > 1 else ""))
        self.failed += count


# -- reporting --------------------------------------------------------------------


def end_to_end(setup_times, outcome):
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(outcome.walls[False]),
        "query_p50_ms": 1000 * percentile(outcome.latencies, 50),
        "query_p90_ms": 1000 * percentile(outcome.latencies, 90),
        "peak_rss_mb": outcome.peak_rss_mb,
    }


def per_layer(walls, summaries):
    out = {}
    for key, value in summaries[0].items():
        if isinstance(value, int):  # counts repeat exactly; keep the first pass
            out[key] = value
        else:
            out[key] = statistics.median(s[key] for s in summaries)
    out["trace.untraced_wall_s"] = statistics.median(walls[False])
    out["trace.traced_wall_s"] = statistics.median(walls[True])
    out["trace.overhead_ratio"] = out["trace.traced_wall_s"] / out["trace.untraced_wall_s"]
    return out


def unit(name):
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def result(setup_times, outcome, trace):
    """The result object of one run: {"correct", "attempted", "failed",
    "metrics"}, end-to-end metrics untraced and per-layer ones traced."""
    if trace:
        metrics = per_layer(outcome.walls, outcome.layer_passes)
    else:
        metrics = end_to_end(setup_times, outcome)
    return {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "rechml", "cli.py")):
        print(f"error: no rechml sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    bench = Bench(args.workload, args.seed)
    bench.setup()
    bench.load_expected()
    outcome = bench.run(args.seconds, bool(args.trace))
    out = result(bench.setup_times, outcome, args.trace)

    walls = outcome.walls
    for line in outcome.errors[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    if args.trace and bench.tracer.missing:
        print(f"not traced (absent): {', '.join(bench.tracer.missing)}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: {len(bench.queries)} queries per pass, "
          f"{len(walls[False])} untraced and {len(walls[True])} traced passes")
    print(f"shape {json.dumps(bench.inputs.shape, sort_keys=True)}")
    print(f"failed_ratio {out['failed'] / out['attempted']:.4f} ratio "
          f"({out['failed']} of {out['attempted']} queries)")
    if not args.trace:
        tail = tail_percentile(len(outcome.latencies))
        print(f"samples {len(outcome.latencies)} query latencies; highest percentile with >=10 samples "
              f"beyond it: {'none' if tail is None else f'p{tail}'}")
        for kind, values in sorted(outcome.by_kind.items()):
            print(f"kind {kind}: p50 {1000 * percentile(values, 50):.4g} ms, "
                  f"p90 {1000 * percentile(values, 90):.4g} ms over {len(values)} queries")
        print(f"samples {len(bench.setup_times)} set-ups; rss {outcome.rss_floor_mb:.2f} MB before "
              f"the first query (interpreter, rechml, inputs, expected answers)")
    speeds = statistics.quantiles(bench.speeds, n=10)
    print(f"speed factor p10 {speeds[0]:.3f}, p90 {speeds[-1]:.3f} over {len(bench.speeds)} "
          f"calibrations (a reported time is the measured one times its factor)")
    for name, metric in out["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
