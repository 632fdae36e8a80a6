"""Benchmark of the cyclebalance package, run through its public Python API.

Run from the repository root:

    python3 perfbench/run.py --workload tribe-null-L16 --seed 1 --seconds 45 --trace 0

With ``--trace 0`` it times whole solves for ``--seconds`` seconds and
prints the end-to-end metrics; with ``--trace 1`` it also wraps the
package's functions at module boundaries, in a single process, and prints
the per-layer metrics.  Every solve is checked against an independent
reference.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics; the line before it holds the
environment, the input properties and the raw timings.  The exit code is 0
only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path
from statistics import median, median_low

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPAN_DIR = ROOT / ".perfbench"

# set-up is repeated in fresh interpreters; the median is reported
SETUP_PROBES = 5
GRAPH_BUILDS = 5
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=45.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="time import, graph and references once; print it")
    return p.parse_args(argv)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def setup_probes(workload, seed: int) -> list[float]:
    """Set-up time measured in fresh interpreters, which pay the imports."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", workload.name,
             "--seed", str(seed), "--setup-probe"],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.split()[-1]))
    return times


def fits_another(last: float, deadline: float) -> bool:
    """Whether one more solve as long as the last ends before the deadline,
    so a run measures for at most about its --seconds."""
    return time.perf_counter() + last <= deadline


def peak_rss_mb() -> float:
    """This process's peak plus the largest peak of a waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def environment(workers: int) -> dict:
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc(),
        "workers": workers,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


class Solves:
    """Timed solves of one kind; the results are checked after timing."""

    def __init__(self):
        self.times: list[float] = []
        self.results: list = []

    def run(self, fn, *args):
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        except Exception:  # a solve that raises counts as failed
            result = SolveError(traceback.format_exc(limit=3))
        self.times.append(time.perf_counter() - t0)
        self.results.append(result)


class SolveError:
    def __init__(self, text: str):
        self.text = text


def check_all(workload, case, results) -> list[list[str]]:
    out = []
    for r in results:
        if isinstance(r, SolveError):
            out.append([r.text.strip().splitlines()[-1]])
        else:
            out.append(workload.check(case, r))
    return out


def run_plain(workload, seed: int, seconds: float) -> tuple[dict, dict]:
    case = workload.setup(seed)
    workers = nproc() if workload.pooled else 1
    solves = Solves()
    deadline = time.perf_counter() + seconds
    rss = None
    while True:
        solves.run(workload.solve, case, workers)
        # set-up plus one solve; later solves only add allocator drift
        rss = rss or peak_rss_mb()
        if not fits_another(solves.times[-1], deadline):
            break
    workload.finish(case)
    failures = check_all(workload, case, solves.results)
    props = workload_survey(case, cyclic=False)
    setup = setup_probes(workload, seed)
    solve_s = median(solves.times)
    metrics = {
        "setup_s": (median(setup), "s"),
        "solve_s": (solve_s, "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    # fixed numerators, so these restate solve_s and are not gated
    rates = {"subgraphs_per_s": props["visits"] / solve_s,
             "censuses_per_s": props["censuses"] / solve_s}
    info = {"environment": environment(workers), "input": props,
            "solve_times_s": solves.times, "setup_probes_s": setup, **rates}
    return _outcome(metrics, failures, info)


def run_traced(workload, seed: int, seconds: float) -> tuple[dict, dict]:
    """Untraced and traced single-process solves in turn, plus pooled
    untraced solves for the pooled workload; medians of each."""
    from spans import Tracer
    from cyclebalance import subgraphs

    case = workload.setup(seed)
    builds = []
    for _ in range(GRAPH_BUILDS):
        t0 = time.perf_counter()
        workload.build(seed)
        builds.append(time.perf_counter() - t0)

    tracer = Tracer()
    inputs: dict[int, list] = {}

    def capture(args, _result):
        inputs.setdefault(tracer.solve, []).append(args[:2])

    pooled, plain, traced = Solves(), Solves(), Solves()
    deadline = time.perf_counter() + seconds
    while True:
        round_start = time.perf_counter()
        if workload.pooled:
            pooled.run(workload.solve, case, nproc())
        plain.run(workload.solve, case, 1)
        tracer.solve = len(traced.times)
        for owner, attr, name in workload.trace_targets():
            tracer.wrap(owner, attr, name,
                        observe=capture if name == "engine.cycle_census"
                        else None)
        try:
            traced.run(workload.solve, case, 1)
        finally:
            tracer.restore()
        tracer.require_calls()
        if not fits_another(time.perf_counter() - round_start, deadline):
            break

    workload.finish(case)
    results = pooled.results + plain.results + traced.results
    failures = check_all(workload, case, results)

    per_solve = []
    for k, result in enumerate(traced.results):
        enum_s = 0.0
        for g, length in inputs.get(k, []):
            t0 = time.perf_counter()
            subgraphs.enumerate_connected_induced_subgraphs(g, length)
            enum_s += time.perf_counter() - t0
        layer = span_metrics(tracer, k, enum_s)
        if not isinstance(result, SolveError):
            layer.update(workload.layer_counts(result))
        per_solve.append(layer)

    props = workload_survey(case, inputs.get(0), cyclic=True)
    single = median(plain.times)
    parallel_eff = (single / (nproc() * median(pooled.times))
                    if pooled.times else 0.0)
    metrics = {
        "graph.build_s": (median(builds), "s"),
        "subgraphs.visits": (props["visits"], "count"),
        "subgraphs.cyclic_frac": (props["cyclic_frac"], "ratio"),
        "engine.bound_log2": (props["bound_log2"], "log2"),
        "montecarlo.parallel_eff": (parallel_eff, "ratio"),
        "trace.overhead_frac": (median(traced.times) / single - 1, "ratio"),
    }
    for name, unit in LAYER_UNITS.items():
        if name not in metrics:
            # a layer the workload never enters reads 0
            values = [layer.get(name, 0) for layer in per_solve]
            if unit == "count":
                metrics[name] = (median_low(values), unit)
            else:
                metrics[name] = (float(median(values)), unit)
    tracer.dump(SPAN_DIR / f"spans-{workload.name}-seed{seed}.json")
    info = {"environment": environment(nproc() if workload.pooled else 1),
            "input": props,
            "plain_times_s": plain.times, "traced_times_s": traced.times,
            "pooled_times_s": pooled.times, "graph_builds_s": builds}
    return _outcome(metrics, failures, info)


def span_metrics(tracer, k: int, enum_s: float) -> dict[str, float]:
    """Layer times of traced solve ``k``; ``enum_s`` is the standalone
    enumeration time of its census inputs."""
    census_s = tracer.total("engine.cycle_census", k)
    return {
        "subgraphs.enumerate_s": enum_s,
        "engine.census_s": census_s,
        "engine.census_calls": tracer.count("engine.cycle_census", k),
        "engine.self_s": census_s - enum_s,
        "graph.induce_s": tracer.total("graph.induced_subgraph", k),
        "montecarlo.sample_s": tracer.total(
            "montecarlo.sample_connected_vertex_set", k),
        "montecarlo.census_s": tracer.total(
            "engine.cycle_census", k, parent="montecarlo.run_monte_carlo"),
        "montecarlo.aggregate_s": tracer.self_total(
            "montecarlo.run_monte_carlo", k),
        "nullmodel.census_s": tracer.total(
            "engine.cycle_census", k, parent="nullmodel.shuffle_null"),
        "nullmodel.self_s": tracer.self_total("nullmodel.shuffle_null", k),
    }


LAYER_UNITS = {
    "graph.build_s": "s", "graph.induce_s": "s",
    "subgraphs.visits": "count", "subgraphs.enumerate_s": "s",
    "subgraphs.cyclic_frac": "ratio",
    "engine.census_s": "s", "engine.census_calls": "count",
    "engine.self_s": "s", "engine.bound_log2": "log2",
    "montecarlo.sample_s": "s", "montecarlo.census_s": "s",
    "montecarlo.aggregate_s": "s", "montecarlo.samples": "count",
    "montecarlo.short_samples": "count", "montecarlo.parallel_eff": "ratio",
    "nullmodel.census_s": "s", "nullmodel.shuffles": "count",
    "nullmodel.self_s": "s",
    "trace.overhead_frac": "ratio",
}


def workload_survey(case, census_inputs=None, *, cyclic: bool) -> dict:
    from workloads import survey
    props = survey(census_inputs or case.census_inputs, cyclic)
    return {"vertices": case.graph.vertex_count,
            "arcs": case.graph.edge_count, **props}


def _outcome(metrics, failures, info):
    failed = sum(1 for f in failures if f)
    attempted = len(failures)
    info["error_rate"] = failed / attempted
    info["failures"] = sorted({msg for f in failures for msg in f})[:10]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return result, info


def main(argv=None, registry=None) -> int:
    args = parse_args(argv)
    t0 = time.perf_counter()
    # imported here, after _prepare, because it loads the package and numpy
    import workloads
    registry = registry or workloads.REGISTRY
    if args.workload not in registry:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(registry)}", file=sys.stderr)
        return 2
    workload = registry[args.workload]
    if args.setup_probe:
        workload.setup(args.seed)
        print(repr(time.perf_counter() - t0))
        return 0
    run = run_traced if args.trace else run_plain
    result, info = run(workload, args.seed, args.seconds)
    print(json.dumps({"workload": workload.name, "seed": args.seed,
                      "trace": args.trace, **info}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def _prepare() -> bool:
    """Point imports at the checkout's sources and pin BLAS threads.

    One BLAS thread per process keeps workers x BLAS threads <= nproc in
    the Monte Carlo pool; the variables must be set before numpy loads.
    """
    if not (SRC / "cyclebalance" / "__init__.py").is_file():
        print(f"no package sources under {SRC}; run from a repository "
              f"checkout", file=sys.stderr)
        return False
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    return True


if __name__ == "__main__":
    sys.exit(main() if _prepare() else 2)
