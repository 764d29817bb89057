"""quasibraid benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload loops --seed 1 --seconds 12 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  Load is one client in a closed loop: operations run one after
another in this process, and the timed phase repeats whole passes over the
seeded corpus until ``--seconds`` have gone by (at least ``MIN_PASSES``, or
the workload's own ``MIN_PASSES``), so every run weighs every operation
equally.  Times are scaled to a reference speed (see ``ReferenceClock``), and
an operation's latency is the best of its scaled executions in the run.
Answers are checked by independent oracles outside the timed intervals.

With ``--trace 0`` the last line of output carries the end-to-end metrics
named in ``BENCHMARK.json``; with ``--trace 1`` it carries the per-layer
metrics of one traced setup and one traced pass, and the spans are written
to ``bench/out/``.  Earlier lines hold the full report: workload-specific
metrics, error families, known-defect counts, the output digest and the run
environment.  See ``bench/README.md``.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
SETUP_REPEATS = 3
MIN_PASSES = 3
REFERENCE_NOMINAL_S = 0.015
REFERENCE_EVERY_S = 1.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "reads_per_s": "1/s",
    "read_p50_ms": "ms",
    "read_p90_ms": "ms",
}


class BenchError(Exception):
    """The benchmark cannot produce a valid measurement."""


# -- program access -----------------------------------------------------------


def import_program():
    package = ROOT / "src" / "quasibraid" / "__init__.py"
    if not package.is_file():
        raise BenchError(f"no quasibraid sources at {package.parent}")
    sys.path.insert(0, str(package.parent.parent))
    import quasibraid

    return quasibraid


def reset_program_caches() -> None:
    """Forget built realization plans, so a repeated setup rebuilds them."""
    module = sys.modules.get("quasibraid.realization")
    cache = getattr(module, "_PLAN_CACHE", None)
    if isinstance(cache, dict):
        cache.clear()


def raising_layer(exc: BaseException) -> str:
    """``module.function`` of the innermost program frame that raised."""
    layer = "unknown"
    for frame in traceback.extract_tb(exc.__traceback__):
        path = Path(frame.filename)
        if path.parent.name == "quasibraid":
            layer = f"{path.stem}.{frame.name}"
    return layer


# -- running operations -------------------------------------------------------


class ReferenceClock:
    """Scales wall time to the speed at which a fixed kernel takes
    ``REFERENCE_NOMINAL_S``.

    The machines this benchmark runs on are shared, and their speed moves by
    up to 1.7x for tens of seconds to minutes at a time, far beyond any useful
    bound.  The kernel, timed as the best of three at most every
    ``REFERENCE_EVERY_S``, is shaped like the program's hot loop (batched
    eigenvalues of small complex matrices, pairwise distances, a sort, plain
    Python arithmetic) and calls nothing in quasibraid, so a change to the
    program moves the scaled times exactly as it moves wall time.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        shape = (64, 4, 4)
        self.matrices = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        self.samples: list[float] = []
        self.factor = 1.0
        self._due = -math.inf

    def _kernel_seconds(self) -> float:
        started = time.perf_counter()
        total = 0.0
        for i in range(25):
            values = np.linalg.eigvals(self.matrices)
            total += float(np.abs(values[:, :, None] - values[:, None, :]).sum())
            total += sum(int(k) for k in np.lexsort((values[i].imag, values[i].real)))
            total += sum(j * 0.5 for j in range(300))
        return time.perf_counter() - started

    def scale(self) -> float:
        """The current factor from wall time to reference time."""
        if time.perf_counter() >= self._due:
            best = min(self._kernel_seconds() for _ in range(3))
            self.samples.append(best)
            self.factor = REFERENCE_NOMINAL_S / best
            self._due = time.perf_counter() + REFERENCE_EVERY_S
        return self.factor


class Tally:
    """Timed outcomes of one phase: per-operation times, errors, answers."""

    def __init__(self, qb, workload, clock: ReferenceClock | None = None) -> None:
        self.qb = qb
        self.workload = workload
        self.clock = clock
        self.times: dict[str, list[float]] = {}
        self.raw: dict[str, list[float]] = {}
        self.kinds: dict[str, str] = {}
        self.errors: Counter[tuple[str, str]] = Counter()
        self.first: dict[str, tuple] = {}
        self.digest: dict[str, str] = {}
        self.nondeterministic: set[str] = set()

    def execute(self, op, call, kind: str):
        """Time one call; returns its answer, or None when it raised."""
        factor = self.clock.scale() if self.clock is not None else 1.0
        started = time.perf_counter()
        try:
            out = call()
        except (self.qb.InputError, self.qb.NumericalFailure) as exc:
            elapsed = time.perf_counter() - started
            family = "InputError" if isinstance(exc, self.qb.InputError) else "NumericalFailure"
            outcome = ("error", family, raising_layer(exc))
            self.errors[family, outcome[2]] += 1
            out = None
            record = f"{family}:{outcome[2]}".encode()
        else:
            elapsed = time.perf_counter() - started
            outcome = ("ok", out)
            record = self.workload.record(op, out)
        self.times.setdefault(op.key, []).append(elapsed * factor)
        self.raw.setdefault(op.key, []).append(elapsed)
        self.kinds[op.key] = kind
        digest = hashlib.sha256(record).hexdigest()
        if op.key not in self.first:
            self.first[op.key] = outcome
            self.digest[op.key] = digest
        elif self.digest[op.key] != digest:
            self.nondeterministic.add(op.key)
        return out

    def runs(self, key: str) -> int:
        return len(self.times.get(key, ()))

    def attempted(self) -> int:
        return sum(len(t) for t in self.times.values())

    def raised(self) -> int:
        return sum(self.errors.values())

    def best(self, kind: str, raw: bool = False) -> dict[str, float]:
        """Best time in seconds per operation of this kind; +inf if it raised."""
        return {
            key: min(times) if self.first[key][0] == "ok" else math.inf
            for key, times in (self.raw if raw else self.times).items()
            if self.kinds[key] == kind
        }

    def pass_seconds(self, kind: str, raw: bool = False) -> float:
        """One pass at each operation's best time, failed operations included."""
        times = self.raw if raw else self.times
        return sum(min(t) for key, t in times.items() if self.kinds[key] == kind)


def run_pass(workload, ops, tally: Tally, tracer=None) -> None:
    for op in ops:
        if tracer is not None:
            tracer.op = op.key
        out = tally.execute(op, lambda: workload.run(op), "op")
        if out is None:
            continue
        for read in op.reads:
            if tracer is not None:
                tracer.op = read.key
            tally.execute(read, lambda: workload.read(out, read), "read")


def run_timed(workload, ops, tally: Tally, seconds: float) -> int:
    """Whole passes over the corpus until ``seconds`` have gone by."""
    min_passes = getattr(workload, "MIN_PASSES", MIN_PASSES)
    started = time.perf_counter()
    passes = 0
    while passes < min_passes or time.perf_counter() - started < seconds:
        run_pass(workload, ops, tally)
        passes += 1
    return passes


def timed_setup(workload):
    reset_program_caches()
    started = time.perf_counter()
    ops = workload.setup()
    return ops, time.perf_counter() - started


# -- checking -----------------------------------------------------------------


def check_answers(workload, ops, tally: Tally) -> dict:
    """Run the oracles on every first answer; weigh each by its executions."""
    wrong: dict[str, tuple[str, str | None]] = {}
    every = list(ops) + [read for op in ops for read in op.reads]
    for op in every:
        outcome = tally.first.get(op.key)
        if outcome is None or outcome[0] != "ok":
            continue
        reason = workload.check(op, outcome[1])
        if reason is not None:
            wrong[op.key] = (reason, op.known_defect)
    digest = hashlib.sha256()
    for op in every:
        digest.update(f"{op.key}={tally.digest.get(op.key, 'not run')}\n".encode())
    known = Counter()
    unexpected = []
    for key, (reason, defect) in wrong.items():
        if defect is None:
            unexpected.append(f"{key}: {reason}")
        else:
            known[defect] += tally.runs(key)
    return {
        "wrong_runs": sum(tally.runs(key) for key in wrong),
        "wrong_ops": len(wrong),
        "known_defects": dict(known),
        "unexpected": unexpected,
        "examples": [f"{key}: {reason}" for key, (reason, _) in list(wrong.items())[:5]],
        "digest": digest.hexdigest(),
    }


# -- metrics ------------------------------------------------------------------


def nearest_rank(values: list[float], share: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(tally: Tally, setup_s: float, rss_mb: float, raw: bool = False) -> dict[str, float]:
    values = {"setup_s": setup_s, "peak_rss_mb": rss_mb}
    for kind in ("op", "read"):
        best = tally.best(kind, raw)
        if not best:
            continue
        ms = [1e3 * t for t in best.values()]
        succeeded = sum(1 for t in best.values() if math.isfinite(t))
        values[f"{kind}s_per_s"] = succeeded / tally.pass_seconds(kind, raw)
        values[f"{kind}_p50_ms"] = statistics.median(ms)
        values[f"{kind}_p90_ms"] = nearest_rank(ms, 0.9)
    return values


# -- environment --------------------------------------------------------------


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(seed: int) -> dict:
    import numpy as np

    info = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
        "seed": seed,
        "commit": git_commit(),
    }
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        info["blas"] = {
            kind: {key: deps[kind].get(key) for key in ("name", "version", "openblas configuration")}
            for kind in ("blas", "lapack")
            if kind in deps
        }
    except (TypeError, AttributeError):
        info["blas"] = "unknown (numpy cannot report its build configuration)"
    return info


# -- reporting ----------------------------------------------------------------


def json_number(value: float):
    """A metric for a JSON report line: +inf (an operation that raised sits at
    this percentile) is written as the string "inf"."""
    return value if math.isfinite(value) else str(value)


def metric_line(name: str, value: float, unit: str) -> str:
    return f"  {name:<48} {value:>14.6g} {unit}"


def last_line_metrics(specs: list[dict], values: dict[str, float]) -> dict:
    metrics = {}
    for spec in specs:
        value = values.get(spec["name"])
        if value is None or not math.isfinite(value):
            raise BenchError(f"metric {spec['name']} has no finite value ({value})")
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
    return metrics


def report_errors(tally: Tally) -> dict:
    table: dict[str, dict[str, int]] = {}
    for (family, layer), count in sorted(tally.errors.items()):
        table.setdefault(family, {})[layer] = count
    return table


def finish(args, spec_key, values, units, tally, checked, extra) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    attempted = tally.attempted()
    ratios = {
        "failed_ratio": tally.raised() / attempted,
        "wrong_ratio": checked["wrong_runs"] / attempted,
    }
    print(f"metrics ({'traced' if args.trace else 'untraced'} run):")
    for name, value in sorted(values.items()):
        print(metric_line(name, value, units.get(name, "")))
    for name, value in ratios.items():
        print(metric_line(name, value, "ratio"))
    print("errors by family and raising layer:", json.dumps(report_errors(tally), sort_keys=True))
    print("wrong answers from documented seed defects:", json.dumps(checked["known_defects"], sort_keys=True))
    for line in checked["unexpected"]:
        print("UNEXPECTED WRONG ANSWER", line)
    for key in sorted(tally.nondeterministic):
        print("NONDETERMINISTIC ANSWER", key)
    print(f"output digest: {checked['digest']}")
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        **extra,
        "metrics": {
            name: {"value": json_number(v), "unit": units.get(name, "")} for name, v in values.items()
        },
        "ratios": ratios,
        "errors": report_errors(tally),
        "wrong_ops": checked["wrong_ops"],
        "wrong_examples": checked["examples"],
        "known_defects": checked["known_defects"],
        "unexpected_wrong": checked["unexpected"],
        "nondeterministic": sorted(tally.nondeterministic),
        "digest": checked["digest"],
        "environment": environment(args.seed),
    }
    print("report:", json.dumps(report, sort_keys=True))
    result = {
        "correct": not checked["unexpected"] and not tally.nondeterministic,
        "attempted": attempted,
        "failed": tally.raised() + checked["wrong_runs"],
        "metrics": last_line_metrics(spec[spec_key], values),
    }
    print(json.dumps(result))
    return 0


def untraced_run(args, qb, import_s: float) -> int:
    workload = workloads.WORKLOADS[args.workload](qb, args.seed)
    clock = ReferenceClock()
    import_scaled = import_s * clock.scale()
    durations, scaled = [], []
    for _ in range(SETUP_REPEATS):
        factor = clock.scale()
        ops, elapsed = timed_setup(workload)
        durations.append(elapsed)
        scaled.append(elapsed * factor)
    setup_s = import_scaled + statistics.median(scaled)
    tally = Tally(qb, workload, clock)
    passes = run_timed(workload, ops, tally, args.seconds)
    rss = peak_rss_mb()
    checked = check_answers(workload, ops, tally)
    values = end_to_end(tally, setup_s, rss)
    wall = end_to_end(tally, import_s + statistics.median(durations), rss, raw=True)
    reference = [round(1e3 * t, 3) for t in clock.samples]
    print(
        f"workload {args.workload}, seed {args.seed}: {len(ops)} operations and "
        f"{sum(len(op.reads) for op in ops)} reads per pass, {passes} passes, "
        f"{tally.attempted()} attempted; setup {setup_s:.3f} s "
        f"(import {import_s:.3f} s + median of {[round(d, 3) for d in durations]} wall)"
    )
    print(
        f"reference kernel: {len(reference)} timings, best {min(reference)} ms, median "
        f"{statistics.median(reference)} ms, nominal {1e3 * REFERENCE_NOMINAL_S} ms"
    )
    print("wall-time metrics:", json.dumps({k: json_number(v) for k, v in sorted(wall.items())}))
    extra = {
        "passes": passes,
        "setup_samples_s": durations,
        "import_s": import_s,
        "wall_metrics": {k: json_number(v) for k, v in wall.items()},
        "reference_ms": reference,
    }
    return finish(args, "end_to_end", values, UNITS, tally, checked, extra)


def traced_run(args, qb) -> int:
    workload = workloads.WORKLOADS[args.workload](qb, args.seed)
    tracer = tracing.Tracer()
    layers, track_calls = LayerCounts(), []
    tracer.install(
        observers=layers.observers(track_calls),
        taggers={"realization.build_plan": lambda a, k: int(a[0] if a else k["n"])},
    )
    try:
        ops, plain_setup = timed_setup(workload)
        tracer.active = True
        tracer.op = "setup"
        ops, traced_setup = timed_setup(workload)
        tracer.active = False
        plain = Tally(qb, workload)
        started = time.perf_counter()
        run_pass(workload, ops, plain)
        plain_pass = time.perf_counter() - started
        traced = Tally(qb, workload)
        tracer.active = True
        started = time.perf_counter()
        run_pass(workload, ops, traced, tracer)
        traced_pass = time.perf_counter() - started
        tracer.active = False
    finally:
        tracer.uninstall()
    single_ms = 0.0
    for f, branch, loop, cap in track_calls:
        started = time.perf_counter()
        try:
            qb.track_roots(f, branch, loop, step_cap_fraction=cap, stabilize=False)
        except (qb.InputError, qb.NumericalFailure):
            pass
        single_ms += 1e3 * (time.perf_counter() - started)
    overhead = (traced_setup + traced_pass) / (plain_setup + plain_pass) - 1.0
    values, units = layers.metrics(tracer, traced, single_ms, overhead)
    checked = check_answers(workload, ops, plain)
    for key, digest in traced.digest.items():
        if plain.digest.get(key) != digest:
            plain.nondeterministic.add(key)
    spans_file = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    tracer.write(spans_file)
    print(
        f"workload {args.workload}, seed {args.seed}: one setup and one pass, untraced "
        f"{plain_setup + plain_pass:.3f} s, traced {traced_setup + traced_pass:.3f} s "
        f"(overhead {100 * overhead:.1f}%); {len(tracer.spans)} spans in {spans_file}"
    )
    print("self time by span (ms, setup + pass):")
    for name, ms in sorted(tracer.self_ms().items(), key=lambda kv: -kv[1]):
        print(metric_line(name, ms, f"ms in {tracer.calls(name)} calls"))
    extra = {"plain_s": plain_setup + plain_pass, "traced_s": traced_setup + traced_pass}
    return finish(args, "per_layer", values, units, plain, checked, extra)


# -- per-layer metrics --------------------------------------------------------


class LayerCounts:
    """Counts taken from the results of traced calls."""

    def __init__(self) -> None:
        self.c = Counter()

    def observers(self, track_calls: list) -> dict:
        c = self.c

        def track_roots(args, kwargs, track):
            c["accepted_steps"] += track.accepted_steps
            c["events"] += len(track.events)
            if kwargs.get("stabilize", args[4] if len(args) > 4 else True):
                cap = kwargs.get("step_cap_fraction", args[3] if len(args) > 3 else 1.0 / 256.0)
                track_calls.append((args[0], args[1], args[2], cap))

        def branch_points(args, kwargs, data):
            c["branch_calls"] += 1
            c["branch_points"] += len(data.points)

        def sample(args, kwargs, graph):
            c["graphs"] += 1
            c["segments"] += len(graph.segments)
            c["edges"] += len(graph.edges)
            c["flagged"] += len(graph.flagged)
            c["labels"] += len({e.label for e in graph.edges})

        def realize(args, kwargs, out):
            c["realized"] += 1
            c["bands"] += len(args[0].bands)
            c["loop_primitives"] += len(out[1].primitives)
            c["verification_letters"] += len(out[2].letters)

        return {
            "monodromy.track_roots": track_roots,
            "branch.branch_points": branch_points,
            "crossing_graph.sample_crossing_graph": sample,
            "realization.realize": realize,
        }

    def metrics(self, tracer, tally: Tally, single_ms: float, overhead: float):
        c = self.c
        selfs = tracer.self_ms()
        realize_ms = tracer.total_ms("realization.realize")
        track_ms = tracer.total_ms("monodromy.track_roots")
        values: dict[str, float] = {}
        units: dict[str, str] = {}
        for module, func in tracing.SPANNED:
            name = f"{module}.{func}"
            values[f"{name}.self_ms"] = selfs.get(name, 0.0)
            values[f"{name}.calls"] = float(tracer.calls(name))
        for n in range(2, 8):
            values[f"realization.build_plan.n{n}.total_ms"] = tracer.total_ms(
                "realization.build_plan", tag=n
            )
        reads = sum(len(t) for key, t in tally.times.items() if tally.kinds[key] == "read")
        derived = {
            "branch.points_per_curve": (
                c["branch_points"] / c["branch_calls"] if c["branch_calls"] else 0.0,
                "count",
            ),
            "monodromy.accepted_steps": (c["accepted_steps"], "count"),
            "monodromy.events": (c["events"], "count"),
            "monodromy.single_pass_ms": (single_ms, "ms"),
            "monodromy.stabilize_factor": (track_ms / single_ms if single_ms else 0.0, "ratio"),
            "crossing_graph.segments": (c["segments"], "count"),
            "crossing_graph.edges": (c["edges"], "count"),
            "crossing_graph.edges_per_label": (c["edges"] / c["labels"] if c["labels"] else 0.0, "count"),
            "crossing_graph.flagged": (c["flagged"], "count"),
            "paths.primitive_intersections.calls_per_read": (
                tracer.counts["paths.primitive_intersections"] / reads if reads else 0.0,
                "count",
            ),
            "realization.track_share": (
                tracer.nested_ms("monodromy.braid_along", "realization.realize") / realize_ms
                if realize_ms
                else 0.0,
                "ratio",
            ),
            "realization.loop_primitives": (c["loop_primitives"] / c["realized"] if c["realized"] else 0.0, "count"),
            "realization.verification_letters": (
                c["verification_letters"] / c["realized"] if c["realized"] else 0.0,
                "count",
            ),
            "realization.ms_per_band": (realize_ms / c["bands"] if c["bands"] else 0.0, "ms"),
            "trace.overhead": (overhead, "ratio"),
        }
        for name, (value, unit) in derived.items():
            values[name] = float(value)
            units[name] = unit
        for name in values:
            units.setdefault(name, "ms" if name.endswith("_ms") else "count")
        return values, units


# -- entry point --------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("loops", "graph", "realize", "analyze"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if not (ROOT / "BENCHMARK.json").is_file():
            raise BenchError("BENCHMARK.json is missing from the checkout root")
        qb = import_program()
        import_s = time.perf_counter() - STARTED
        if args.trace:
            return traced_run(args, qb)
        return untraced_run(args, qb, import_s)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
