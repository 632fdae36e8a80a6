"""Command-line front end.

Subcommands: census, montecarlo, orbits, walks, lowexact, null,
shufflenull, fit, report, fetch.  Exit codes: 0 success, 1 usage error,
2 data error, 3 non-convergence.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import replace
from pathlib import Path

from . import datasets
from .engine import balance_table, cycle_census, exact_low_order_ratios
from .graph import GraphError, SignedDigraph, load_edge_list
from .montecarlo import MonteCarloConfig, convergence_loop, run_monte_carlo
from .nullmodel import fit_correlation_length, shuffle_null, with_null_bands
from .orbits import primitive_orbit_counts, walk_ratios
from .report import AnalysisReport, emit_report

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NO_CONVERGENCE = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _add_common(p: _Parser, *, max_length: bool = True):
    p.add_argument("--input", required=True, help="edge-list file")
    p.add_argument("--undirected", action="store_true",
                   help="read each edge in both orientations, with one sign")
    if max_length:
        p.add_argument("--max-length", type=int, default=20)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output", default=None, help="write here instead of stdout")
    p.add_argument("--timing", action="store_true",
                   help="include wall time in JSON output")


def build_parser() -> _Parser:
    top = _Parser(prog="cyclebalance",
                  description="Structural balance from exact signed "
                              "simple-cycle counts")
    sub = top.add_subparsers(dest="command", required=True)

    census = sub.add_parser("census", parents=[], help="exact cycle census")
    _add_common(census)

    mc = sub.add_parser("montecarlo", help="sampled balance estimate")
    _add_common(mc)
    mc.add_argument("--samples", type=int, default=100,
                    help="samples per batch")
    mc.add_argument("--batches", type=int, default=10)
    mc.add_argument("--sample-size", type=int, default=20)
    mc.add_argument("--seed", type=int, default=0)
    mc.add_argument("--aggregation", choices=("pooled", "mean"),
                    default="pooled")
    mc.add_argument("--workers", type=int, default=1)
    mc.add_argument("--target", type=float, default=None,
                    help="2-sigma convergence threshold; enables the "
                         "convergence loop")
    mc.add_argument("--sample-cap", type=int, default=1_000_000,
                    help="double the samples only while their total over "
                         "all batches stays within this; the first round "
                         "always runs")

    orbits = sub.add_parser("orbits", help="primitive-orbit balance")
    _add_common(orbits)

    walks = sub.add_parser("walks", help="closed-walk balance ratios")
    _add_common(walks)

    lowexact = sub.add_parser("lowexact",
                              help="trace-formula ratios for lengths 1..3")
    # its lengths are fixed at 1..3
    _add_common(lowexact, max_length=False)

    null = sub.add_parser("null", help="independent-sign null model bands")
    _add_common(null)
    null.add_argument("--null-p", type=float, default=None,
                      help="override the measured negative fraction")

    shuffle = sub.add_parser("shufflenull", help="sign-shuffle empirical null")
    _add_common(shuffle)
    shuffle.add_argument("--shuffles", type=int, default=20)
    shuffle.add_argument("--seed", type=int, default=0)
    shuffle.add_argument("--workers", type=int, default=1)

    fit = sub.add_parser("fit", help="correlation-length fit")
    _add_common(fit)
    fit.add_argument("--fit-range", default=None, metavar="A:B",
                     help="length range, e.g. 3:7")

    rep = sub.add_parser("report", help="census plus null bands")
    _add_common(rep)
    rep.add_argument("--null-p", type=float, default=None)

    fetch = sub.add_parser("fetch", help="download a large signed network")
    fetch.add_argument("name", choices=sorted(datasets.SNAP_URLS))
    fetch.add_argument("--dest", default=None)
    return top


def _load(args) -> SignedDigraph:
    path = Path(args.input)
    if not path.exists():
        raise GraphError(f"input file {path} not found")
    g = load_edge_list(path, undirected=args.undirected)
    # --timing reports the wall time from here to the emission
    args.loaded_at = time.perf_counter()
    return g


def _emit(args, g: SignedDigraph, method: str, rows, config,
          extra=None) -> None:
    report = AnalysisReport(
        dataset_name=Path(args.input).stem,
        vertices=g.vertex_count,
        edge_count=g.edge_count,
        negative_fraction=g.negative_edge_fraction() if g.edge_count else None,
        method=method,
        rows=tuple(rows),
        config=config,
        extra=extra or {},
        wall_time_s=time.perf_counter() - args.loaded_at,
    )
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="") as fh:
            emit_report(report, args.format, fh, include_timing=args.timing)
    else:
        emit_report(report, args.format, sys.stdout,
                    include_timing=args.timing)


def _cmd_census(args) -> int:
    g = _load(args)
    table = balance_table(cycle_census(g, args.max_length))
    _emit(args, g, "exact", table.rows, {"max_length": args.max_length})
    return EXIT_OK


def _cmd_montecarlo(args) -> int:
    g = _load(args)
    agg = "pooled" if args.aggregation == "pooled" else "mean-of-ratios"
    cfg = MonteCarloConfig(
        samples_per_batch=args.samples, batches=args.batches,
        sample_size=args.sample_size, max_length=args.max_length,
        master_seed=args.seed, aggregation=agg,
    )
    if args.target is not None:
        rep = convergence_loop(g, cfg, args.target, args.sample_cap,
                               workers=args.workers)
    else:
        rep = run_monte_carlo(g, cfg, workers=args.workers)
    # worker count is an execution detail: reports must be byte-identical
    # for a given (graph, config, seed) regardless of parallelism
    config = {
        "samples_per_batch": cfg.samples_per_batch, "batches": cfg.batches,
        "sample_size": cfg.sample_size, "max_length": cfg.max_length,
        "seed": cfg.master_seed, "aggregation": cfg.aggregation,
        "total_samples": rep.total_samples,
        "short_samples": rep.short_samples,
    }
    extra = {"cycles_found": dict(enumerate(rep.cycles_found, start=1))}
    if args.target is not None:
        extra["converged_lengths"] = list(rep.converged_lengths)
        extra["failed_lengths"] = list(rep.failed_lengths)
    _emit(args, g, "monte-carlo", rep.rows, config, extra)
    if args.target is not None and rep.failed_lengths:
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def _cmd_orbits(args) -> int:
    g = _load(args)
    if args.max_length < 1:
        raise ValueError("max_length must be >= 1")
    # lengths 1 and 2 hold no orbit, so the census always runs to length 3
    oc = primitive_orbit_counts(g, max(args.max_length, 3))
    _emit(args, g, "orbits", balance_table(oc).rows[2:],
          {"max_length": args.max_length})
    return EXIT_OK


def _cmd_walks(args) -> int:
    g = _load(args)
    # the table reports closed-walk ratios only, not the walk counts
    rows = [replace(r, n_pos=None, n_neg=None)
            for r in walk_ratios(g, args.max_length)]
    _emit(args, g, "walks", rows, {"max_length": args.max_length})
    return EXIT_OK


def _cmd_lowexact(args) -> int:
    g = _load(args)
    _emit(args, g, "exact", exact_low_order_ratios(g).rows,
          {"max_length": 3})
    return EXIT_OK


def _emit_null_bands(args, method: str) -> int:
    """The census with null bands at --null-p, else at g's negative edge
    fraction."""
    g = _load(args)
    p = args.null_p if args.null_p is not None else g.negative_edge_fraction()
    table = with_null_bands(balance_table(cycle_census(g, args.max_length)), p)
    _emit(args, g, method, table.rows, {"max_length": args.max_length, "p": p})
    return EXIT_OK


def _cmd_null(args) -> int:
    return _emit_null_bands(args, "null")


def _cmd_shufflenull(args) -> int:
    g = _load(args)
    res = shuffle_null(g, args.max_length, args.shuffles, seed=args.seed,
                       workers=args.workers)
    _emit(args, g, "null", res.mean.rows,
          {"max_length": args.max_length, "shuffles": args.shuffles,
           "seed": args.seed})
    return EXIT_OK


def _cmd_fit(args) -> int:
    g = _load(args)
    table = balance_table(cycle_census(g, args.max_length))
    lengths = None
    if args.fit_range:
        try:
            a, b = args.fit_range.split(":")
            lengths = list(range(int(a), int(b) + 1))
        except ValueError as exc:
            raise _UsageError(f"bad --fit-range {args.fit_range!r}") from exc
    fit = fit_correlation_length(table, lengths)
    extra = {"xi": fit.xi if math.isfinite(fit.xi) else "inf",
             "two_xi": fit.two_xi if math.isfinite(fit.two_xi) else "inf",
             "fit_lengths": list(fit.fit_lengths),
             "residual": fit.residual,
             "boundary": fit.boundary}
    _emit(args, g, "fit", table.rows, {"max_length": args.max_length}, extra)
    return EXIT_OK


def _cmd_report(args) -> int:
    return _emit_null_bands(args, "exact")


def _cmd_fetch(args) -> int:
    dest = Path(args.dest) if args.dest else None
    path = datasets.fetch_snap(args.name, dest)
    print(path)
    return EXIT_OK


_COMMANDS = {
    "census": _cmd_census,
    "montecarlo": _cmd_montecarlo,
    "orbits": _cmd_orbits,
    "walks": _cmd_walks,
    "lowexact": _cmd_lowexact,
    "null": _cmd_null,
    "shufflenull": _cmd_shufflenull,
    "fit": _cmd_fit,
    "report": _cmd_report,
    "fetch": _cmd_fetch,
}


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (GraphError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
