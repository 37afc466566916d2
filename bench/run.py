"""Layered benchmark of ``einlocus.verdict``.

    python3 bench/run.py --workload suite --seed 0 --seconds 27 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
One single-threaded process does all the work.  It first runs the verdict
list once, untimed, at two samples per verdict, to learn which jet-space
tables the verdicts build.  Then it runs passes over the list until
``--seconds`` have been spent (at least two passes).  Before each pass it
sets up afresh, three to seven times: a new ``import einlocus``, building
the bundles and warming the jet-space tables they use.  The pass runs on
the last one.  ``setup_s`` is the median of the set-ups before one pass,
taken at the pass where that median is largest (see ``end_to_end``).
Every verdict starts from cold chart and locus geometry caches.  With
``--trace 1`` the passes come in pairs, one untraced and one traced (see
``spans.py``), followed by a jet-kernel microbenchmark; these give the
per-layer metrics.

Every verdict is checked against the closed-form oracle in ``workloads.py``
and against the report bytes of the same verdict in the first pass; the
SHA-256 of each report is recorded, so that runs in different processes
can be compared (``selfcheck.py`` does).  A summary goes to stdout, then,
as the last line, one JSON object with keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The full record
(machine fingerprint, per-pass and per-verdict times, traced spans) is
written to ``bench/out/<workload>-seed<seed>-trace<trace>.json``.

Exit codes: 0 all verdicts correct, 1 some verdict wrong, 2 the benchmark
could not run or measure: bad arguments, no ``src/einlocus`` next to
``bench/``, a jet table built inside a timed pass, or, in a traced run, a
span none of whose hooks exists in the package.
"""

from __future__ import annotations

import os

# Pin native thread pools before numpy can load: all load comes from this
# one process and one thread.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402

from spans import STAGES, Tracer  # noqa: E402
from workloads import WORKLOADS, check  # noqa: E402

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

MIN_PASSES = 2
# Timed set-ups before each pass: at least MIN_SETUPS, more while they
# have taken less than SETUP_WINDOW_S, at most MAX_SETUPS.
MIN_SETUPS, MAX_SETUPS, SETUP_WINDOW_S = 3, 7, 0.5
# Samples per verdict in the untimed pass that finds the jet-space shapes.
DISCOVERY_SAMPLES = 2
MICROBENCH_VARS = (2, 8, 12, 18)

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "scaling_exponent": "1",
}

# Per-layer metrics: name -> (unit, how to read it from a traced pass).
# ``c`` are call counts, ``s`` self times, ``x`` counts measured inside
# spans, ``p`` pass-level values; all keyed by span or counter name.
PER_LAYER = {
    "jets.mul.calls": ("count", lambda c, s, x, p: c["jets.mul"]),
    "jets.mul.self_s": ("s", lambda c, s, x, p: s["jets.mul"]),
    "jets.mul.table_ops": ("count", lambda c, s, x, p: x["jets.mul.table_ops"]),
    "jets.mul.bytes_computed": ("B", lambda c, s, x, p: x["jets.mul.bytes_computed"]),
    "jets.deriv.calls": ("count", lambda c, s, x, p: c["jets.deriv"]),
    "jets.compose.calls": ("count", lambda c, s, x, p: c["jets.compose"]),
    "jets.restrict.calls": ("count", lambda c, s, x, p: c["jets.restrict"]),
    "jets.restrict.self_s": ("s", lambda c, s, x, p: s["jets.restrict"]),
    "jets.fd_lift.calls": ("count", lambda c, s, x, p: c["jets.fd_lift"]),
    "jets.fd_lift.self_s": ("s", lambda c, s, x, p: s["jets.fd_lift"]),
    "jets.fd_lift.func_evals": ("count", lambda c, s, x, p: x["jets.fd_lift.func_evals"]),
    **{
        f"jets.mul_us.v{k}": ("us", lambda c, s, x, p, k=k: p["mul_us"][k])
        for k in MICROBENCH_VARS
    },
    "jets.space_build_s.v18": ("s", lambda c, s, x, p: p["space_build_s"]),
    "exprs.evaluate.calls": ("count", lambda c, s, x, p: c["exprs.evaluate"]),
    "exprs.evaluate.self_s": ("s", lambda c, s, x, p: s["exprs.evaluate"]),
    "coords.wirtinger_jet.calls": ("count", lambda c, s, x, p: c["coords.wirtinger_jet"]),
    "coords.wirtinger_jet.self_s": ("s", lambda c, s, x, p: s["coords.wirtinger_jet"]),
    "metrics.geometry.points": ("count", lambda c, s, x, p: p["geometry_misses"]),
    "metrics.geometry.hit_ratio": (
        "frac",
        lambda c, s, x, p: p["geometry_hits"] / max(1, p["geometry_hits"] + p["geometry_misses"]),
    ),
    "metrics.psi_jet.self_s": ("s", lambda c, s, x, p: s["metrics.psi_jet"]),
    "metrics.g.self_s": ("s", lambda c, s, x, p: s["metrics.g"]),
    "metrics.dg_ddg.self_s": ("s", lambda c, s, x, p: s["metrics.dg_ddg"]),
    "metrics.curvature.self_s": ("s", lambda c, s, x, p: s["metrics.curvature"]),
    "metrics.christoffel.self_s": ("s", lambda c, s, x, p: s["metrics.christoffel"]),
    "metrics.einstein_residual.self_s": ("s", lambda c, s, x, p: s["metrics.einstein_residual"]),
    "metrics.riemann_covector.calls": ("count", lambda c, s, x, p: c["metrics.riemann_covector"]),
    "metrics.ricci.self_s": ("s", lambda c, s, x, p: s["metrics.ricci"]),
    "metrics.ricci.total_s": ("s", lambda c, s, x, p: p["total_s"]["metrics.ricci"]),
    "antiholo.jacobian_real.calls": ("count", lambda c, s, x, p: c["antiholo.jacobian_real"]),
    "antiholo.self_s": (
        "s",
        lambda c, s, x, p: sum(v for k, v in s.items() if k.startswith("antiholo.")),
    ),
    "sampling.sample_chart_points.self_s": ("s", lambda c, s, x, p: s["sampling.sample_chart_points"]),
    "sampling.admit_ratio": (
        "frac",
        lambda c, s, x, p: x["sampling.admitted"] / max(1, x["sampling.tried"]),
    ),
    "locus.locus_point.calls": ("count", lambda c, s, x, p: c["locus.locus_point"]),
    "locus.sff.self_s": ("s", lambda c, s, x, p: s["locus.sff"]),
    "locus.totally_real.self_s": ("s", lambda c, s, x, p: s["locus.totally_real"]),
    "locus.restricted_ricci.self_s": ("s", lambda c, s, x, p: s["locus.restricted_ricci"]),
    "locus.combined_potential.self_s": ("s", lambda c, s, x, p: s["locus.combined_potential"]),
    "locus.metric_jets_on_locus.self_s": ("s", lambda c, s, x, p: s["locus.metric_jets_on_locus"]),
    "locus.frame_field_jets.self_s": ("s", lambda c, s, x, p: s["locus.frame_field_jets"]),
    "criterion.trace_operator.calls": ("count", lambda c, s, x, p: c["criterion.trace_operator"]),
    "criterion.trace_operator.self_s": ("s", lambda c, s, x, p: s["criterion.trace_operator"]),
    "criterion.spectral_test.self_s": ("s", lambda c, s, x, p: s["criterion.spectral_test"]),
    **{
        f"verify.stage{k}_s": ("s", lambda c, s, x, p, k=k: p["stage_s"][k])
        for k in STAGES
    },
    "verify.self_s": ("s", lambda c, s, x, p: s["verify.verdict"]),
    "trace.overhead_frac": ("frac", lambda c, s, x, p: p["overhead_frac"]),
}


class BenchmarkError(Exception):
    """The benchmark cannot run in this checkout."""


def fingerprint():
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "loadavg_at_start": list(os.getloadavg()),
    }


def host_reference(reps=5, n=100_000):
    """Median time of a fixed pure-Python loop that does not touch einlocus:
    how fast the host ran at that moment.  It is recorded next to the passes
    so that a shift between runs can be told apart from a change in code."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        total = 0
        for i in range(n):
            total += i * i
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


# -- set-up ----------------------------------------------------------------------


def fresh_import():
    for name in [m for m in sys.modules if m == "einlocus" or m.startswith("einlocus.")]:
        del sys.modules[name]
    return importlib.import_module("einlocus")


def set_up(workload, shapes):
    """Import einlocus afresh, build the bundles, warm the jet tables."""
    package = fresh_import()
    bundles = [case.build(package) for case in workload.cases]
    for nvars, capacity in shapes:
        package.jets.jet_space(nvars, capacity)
    return package, bundles


def discover_shapes(workload, seed):
    """(variables, capacity) of every jet space the workload's verdicts
    build, found by running them once, untimed and at a few samples, on a
    throwaway import whose ``JetSpace`` records its shapes."""
    package, bundles = set_up(workload, ())
    shapes = set()
    init = package.jets.JetSpace.__init__

    def recording(space, nvars, capacity=package.jets.DEFAULT_ORDER):
        shapes.add((nvars, capacity))
        init(space, nvars, capacity)

    package.jets.JetSpace.__init__ = recording
    run_pass(package, workload, bundles, seed, DISCOVERY_SAMPLES)
    return sorted(shapes)


def geometry_caches(package):
    """Every lru_cache defined in the metrics and locus modules: the
    per-point chart and locus geometry caches that a verdict fills.  The
    jet-space cache those modules import from ``jets`` is left warm."""
    caches = []
    for module in (package.metrics, package.locus):
        for value in vars(module).values():
            if (
                callable(getattr(value, "cache_clear", None))
                and hasattr(value, "cache_info")
                and getattr(value, "__module__", None) == module.__name__
            ):
                caches.append(value)
    return caches


# -- timed passes ------------------------------------------------------------------


def run_pass(package, workload, bundles, seed, cap, tracer=None, reference=None):
    """One pass over the verdict list.  Returns per-verdict records; with
    ``reference`` (report bytes of the first pass) also checks determinism."""
    config_cls = package.SamplingConfig
    caches = geometry_caches(package)
    chart_cache = getattr(package.metrics, "_geometry_at", None)
    records = []
    gc.collect()
    for vid, (case, bundle) in enumerate(zip(workload.cases, bundles)):
        for cache in caches:
            cache.cache_clear()
        config = config_cls(
            ambient_samples=min(case.ambient, cap),
            locus_samples=min(case.locus, cap),
            seed=seed,
            tolerance_overrides=case.overrides,
        )
        record = {"label": case.label}
        problems = []
        report = None
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            if tracer is None:
                report = package.verdict(bundle, config)
            else:
                report, layers = tracer.verdict(vid, lambda: package.verdict(bundle, config))
                record["layers"] = layers
        except Exception as exc:  # a raised verdict is a wrong verdict, not a crash
            problems.append(f"raised {type(exc).__name__}: {exc}")
        t1, c1 = time.perf_counter(), time.process_time()
        record["wall_s"] = t1 - t0
        record["cpu_s"] = c1 - c0
        if chart_cache is not None and hasattr(chart_cache, "cache_info"):
            info = chart_cache.cache_info()
            record["geometry_hits"], record["geometry_misses"] = info.hits, info.misses
        if report is not None:
            problems.extend(check(case, report))
            text = report.to_json()
            record["exit_code"] = report.exit_code
            record["constants"] = {k: report.data["constants"].get(k) for k in ("lambda_est", "kappa_est", "C_est")}
            if reference is not None and text != reference[vid]:
                problems.append("report bytes differ from the first pass of this seed")
            record["report"] = text
        record["problems"] = problems
        records.append(record)
    for cache in caches:
        cache.cache_clear()
    return records


def report_digests(records):
    return {
        r["label"]: hashlib.sha256(r["report"].encode()).hexdigest() if "report" in r else None
        for r in records
    }


def pass_summary(records):
    return {
        "wall_s": sum(r["wall_s"] for r in records),
        "cpu_s": sum(r["cpu_s"] for r in records),
        "verdicts": [
            {k: v for k, v in r.items() if k not in ("report", "layers")} for r in records
        ],
    }


def timed_set_ups(workload, shapes):
    """A window of set-ups, each timed after a garbage collection, so that
    freeing the previous import is not charged to the next set-up.
    Returns the last one's package and bundles, and the times."""
    times = []
    package = bundles = None
    while len(times) < MIN_SETUPS or (sum(times) < SETUP_WINDOW_S and len(times) < MAX_SETUPS):
        package = bundles = None  # free the previous import before the next
        gc.collect()
        s0 = time.perf_counter()
        package, bundles = set_up(workload, shapes)
        times.append(time.perf_counter() - s0)
    return package, bundles, times


def timed_passes(workload, seed, seconds, cap, traced):
    """Passes, or pairs of an untraced and a traced pass, until the time is
    spent.  Every pass runs on a set-up of its own; set-ups are timed.

    Returns (untraced passes, traced passes with their tracers, set-up
    times per pass, host reference times per pass, the last set-up's
    package).  Raises BenchmarkError if a pass builds a jet table, which
    belongs to the set-up."""
    shapes = discover_shapes(workload, seed)
    plain, traced_passes, setup_times, host_ref = [], [], [], []
    reference = None
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        for tracer in (None, Tracer()) if traced else (None,):
            package = bundles = None
            package, bundles, times = timed_set_ups(workload, shapes)
            setup_times.append(times)
            host_ref.append(host_reference())
            spaces = package.jets.jet_space.cache_info().misses
            if tracer is None:
                records = run_pass(package, workload, bundles, seed, cap, reference=reference)
                plain.append(records)
            else:
                with tracer.installed(package):
                    records = run_pass(
                        package, workload, bundles, seed, cap, tracer=tracer, reference=reference
                    )
                traced_passes.append((records, tracer))
            cold = package.jets.jet_space.cache_info().misses - spaces
            if cold:
                raise BenchmarkError(
                    f"{cold} jet tables were built inside a timed pass; "
                    f"the set-up warmed only {shapes}"
                )
            if reference is None:
                reference = [r.get("report") for r in records]
        last = time.perf_counter() - t0
        elapsed = time.perf_counter() - start
        if len(plain) >= (1 if traced else MIN_PASSES) and elapsed + last > seconds:
            return plain, traced_passes, setup_times, host_ref, package


# -- metrics -----------------------------------------------------------------------


def median(values):
    return statistics.median(values) if values else 0.0


def slowest(passes, key):
    """Per verdict, its slowest time over the passes."""
    return {
        label: max(r[key] for p in passes for r in p if r["label"] == label)
        for label in (r["label"] for r in passes[0])
    }


def end_to_end(workload, passes, setup_times):
    """Times of the verdict list, and the scaling exponent.

    The host switches between a fast and a slow speed state for seconds to
    minutes at a time.  The slow state shows up in nearly every run and is
    steady; the fast one comes and goes.  So each verdict is charged its
    slowest pass, which measures it at the common speed: on recorded runs
    this spread least from run to run, against means, medians and minima.
    Set-ups are read the same way: the median of each pass's set-ups, at
    the pass where it is largest.  The exponent is taken within each pass,
    whose two verdicts run seconds apart so that the host's speed mostly
    cancels, and then as a median over the passes."""
    wall, cpu = slowest(passes, "wall_s"), slowest(passes, "cpu_s")
    small, big = workload.scaling_pair
    n = {case.label: case.n for case in workload.cases}
    exponents = []
    for records in passes:
        times = {r["label"]: r["wall_s"] for r in records}
        exponents.append(math.log(times[big] / times[small]) / math.log(n[big] / n[small]))
    return {
        "wall_s": sum(wall.values()),
        "cpu_s": sum(cpu.values()),
        "setup_s": max(median(times) for times in setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "scaling_exponent": median(exponents),
    }


def jet_microbench(package, seed, budget_s=0.15):
    """Median time of one jet multiply per variable count, on dense random
    jets, and the time to build the 18-variable table from scratch."""
    import numpy as np

    jets = package.jets
    rng = np.random.default_rng(seed)
    mul_us = {}
    for k in MICROBENCH_VARS:
        space = jets.jet_space(k)
        a, b = (
            jets.Jet(space, rng.standard_normal(space.size) + 1j * rng.standard_normal(space.size), space.capacity)
            for _ in range(2)
        )
        t0 = time.perf_counter()
        a * b
        once = max(time.perf_counter() - t0, 1e-7)
        reps = max(1, int(budget_s / 5 / once))
        batches = []
        for _ in range(5):
            t0 = time.perf_counter()
            for _ in range(reps):
                a * b
            batches.append((time.perf_counter() - t0) / reps * 1e6)
        mul_us[k] = median(batches)
    builds = []
    for _ in range(3):
        t0 = time.perf_counter()
        jets.JetSpace(18)
        builds.append(time.perf_counter() - t0)
    return {"mul_us": mul_us, "space_build_s": median(builds)}


def per_layer(plain, traced_passes, micro):
    """Per-layer metrics: counts from the first traced pass (they repeat
    exactly), times as medians over the traced passes, and the tracing
    overhead from the mean untraced and traced pass times."""
    plain_wall = statistics.mean(sum(r["wall_s"] for r in p) for p in plain)
    traced_wall = statistics.mean(sum(r["wall_s"] for r in p) for p, _ in traced_passes)
    samples = {name: [] for name in PER_LAYER}
    for records, tracer in traced_passes:
        p = {
            **micro,
            "geometry_hits": sum(r.get("geometry_hits", 0) for r in records),
            "geometry_misses": sum(r.get("geometry_misses", 0) for r in records),
            "stage_s": {k: tracer.stage_s.get(k, 0.0) for k in STAGES},
            "total_s": defaultdict(float, tracer.total_s),
            "overhead_frac": traced_wall / plain_wall - 1.0,
        }
        c, s, x = Counter(tracer.calls), defaultdict(float, tracer.self_s), Counter(tracer.extra)
        for name, (_, read) in PER_LAYER.items():
            samples[name].append(read(c, s, x, p))
    out = {}
    for name, (unit, _) in PER_LAYER.items():
        values = samples[name]
        out[name] = values[0] if unit == "count" else median(values)
    return out


# -- output ------------------------------------------------------------------------


def compact_spans(tracer, origin):
    names = sorted({s[0] for s in tracer.spans})
    index = {n: i for i, n in enumerate(names)}
    rows = [
        [index[name], round((start - origin) * 1e6, 1), round((end - origin) * 1e6, 1), parent, vid]
        for name, start, end, parent, vid in tracer.spans
    ]
    return {"names": names, "columns": ["name", "start_us", "end_us", "parent", "verdict"], "rows": rows}


def execute(workload_name, seed, seconds, trace, cap=10**9, write=True):
    """Run one benchmark invocation; returns the full result record."""
    if not (SRC / "einlocus" / "__init__.py").is_file():
        raise BenchmarkError(f"no einlocus package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    workload = WORKLOADS[workload_name]
    machine = fingerprint()

    plain, traced_passes, setup_times, host_ref, package = timed_passes(
        workload, seed, seconds, cap, traced=bool(trace)
    )
    if trace:
        dead = traced_passes[0][1].dead_spans()
        if dead:
            raise BenchmarkError(
                f"no hook of span(s) {', '.join(dead)} exists in the package; "
                "their layer metrics would read 0 (see HOOKS in bench/spans.py)"
            )
    machine["numpy"] = sys.modules["numpy"].__version__
    micro = jet_microbench(package, seed) if trace else None
    all_passes = plain + [records for records, _ in traced_passes]
    attempted = sum(len(p) for p in all_passes)
    failures = [
        {"pass": i, "label": r["label"], "problems": r["problems"]}
        for i, p in enumerate(all_passes)
        for r in p
        if r["problems"]
    ]
    if trace:
        metrics = per_layer(plain, traced_passes, micro)
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
    else:
        metrics = end_to_end(workload, plain, setup_times)
        units = END_TO_END_UNITS
    record = {
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "machine": machine,
        "setup_s": setup_times,
        "host_ref_s": host_ref,
        "report_sha256": report_digests(plain[0]),
        "passes": [pass_summary(p) for p in plain],
        "traced_passes": [pass_summary(p) for p, _ in traced_passes],
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    if trace:
        first_records, first_tracer = traced_passes[0]
        record["hooks_missing"] = first_tracer.missing
        record["per_verdict_layers"] = {r["label"]: r.get("layers") for r in first_records}
        record["spans"] = compact_spans(first_tracer, first_tracer.spans[0][1])
    if write:
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"{workload_name}-seed{seed}-trace{int(trace)}.json"
        path.write_text(json.dumps(record, sort_keys=True) + "\n")
        record["path"] = str(path.relative_to(ROOT))
    return record


def print_summary(record):
    passes = record["passes"]
    labels = [v["label"] for v in passes[0]["verdicts"]]
    print(f"workload {record['workload']} seed {record['seed']} trace {record['trace']}: "
          f"{len(passes)} untraced and {len(record['traced_passes'])} traced passes")
    for i, label in enumerate(labels):
        first = passes[0]["verdicts"][i]
        worst = max(p["verdicts"][i]["wall_s"] for p in passes)
        consts = first.get("constants") or {}
        shown = " ".join(f"{k.split('_')[0]}={v:.9g}" for k, v in consts.items() if v is not None)
        print(f"  {label:<18} exit {first.get('exit_code')}  slowest {worst:8.4f} s  {shown}")
    if record["trace"]:
        for label, layers in record["per_verdict_layers"].items():
            calls = (layers or {}).get("calls", {})
            print(f"  {label:<18} trace_operator calls {calls.get('criterion.trace_operator', 0):>5}"
                  f"  jets.mul calls {calls.get('jets.mul', 0):>9}")
    for name, m in record["metrics"].items():
        print(f"  {name:<40} {m['value']:.6g} {m['unit']}")
    print(f"  {'host reference loop (not a metric)':<40} "
          f"{max(record['host_ref_s']) * 1e3:.4g} ms at the slowest pass")
    print(f"  {'failed_frac':<40} {record['failed'] / record['attempted']:.6g} "
          f"({record['failed']} of {record['attempted']} verdicts)")
    for f in record["failures"]:
        print(f"  WRONG pass {f['pass']} {f['label']}: {'; '.join(f['problems'])}")
    if "path" in record:
        print(f"  full record: {record['path']}")


def default_seconds():
    """The run length named in BENCHMARK.json, or None without the file."""
    try:
        return float(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    except (OSError, ValueError, KeyError):
        return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=default_seconds(),
        help="measured time per run (default: run_seconds of BENCHMARK.json)",
    )  # fmt: skip
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds is None:
        parser.error("--seconds is required when BENCHMARK.json cannot be read")
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")
    try:
        record = execute(args.workload, args.seed, args.seconds, args.trace)
    except BenchmarkError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print_summary(record)
    correct = record["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))  # fmt: skip
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
