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
from .engine import (BalanceTable, balance_table, cycle_census,
                     estimate_ratios, exact_low_order_ratios)
from .graph import GraphError, SignedDigraph, load_edge_list
from .montecarlo import MonteCarloConfig, convergence_loop, run_monte_carlo
from .nullmodel import (fit_correlation_length, null_band, null_ratio,
                        shuffle_null)
from .orbits import primitive_orbit_counts, walk_ratios
from .report import AnalysisReport, ReportRow, emit_report

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
                   help="symmetrize the input")
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
    mc.add_argument("--sample-cap", type=int, default=1_000_000)

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
    return load_edge_list(path, undirected=args.undirected)


def _f(x):
    return None if x is None else float(x)


def _table_rows(table: BalanceTable) -> list[ReportRow]:
    return [
        ReportRow(r.length, r.n_pos, r.n_neg, _f(r.ratio_negative),
                  _f(r.neg_to_pos), _f(r.clustering))
        for r in table.rows
    ]


def _report(args, g: SignedDigraph, method: str, rows, config=None,
            extra=None, wall=None) -> AnalysisReport:
    p = g.negative_edge_fraction() if g.edge_count else None
    return AnalysisReport(
        dataset_name=Path(args.input).stem if getattr(args, "input", None)
        else "-",
        vertices=g.vertex_count,
        edge_count=g.edge_count,
        negative_fraction=p,
        method=method,
        rows=tuple(rows),
        config=config or {},
        extra=extra or {},
        wall_time_s=wall,
    )


def _emit(args, report: AnalysisReport) -> None:
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="") as fh:
            emit_report(report, args.format, fh, include_timing=args.timing)
    else:
        emit_report(report, args.format, sys.stdout,
                    include_timing=args.timing)


def _cmd_census(args) -> int:
    g = _load(args)
    t0 = time.perf_counter()
    table = balance_table(cycle_census(g, args.max_length))
    wall = time.perf_counter() - t0
    _emit(args, _report(args, g, "exact", _table_rows(table),
                        config={"max_length": args.max_length}, wall=wall))
    return EXIT_OK


def _cmd_montecarlo(args) -> int:
    g = _load(args)
    agg = "pooled" if args.aggregation == "pooled" else "mean-of-ratios"
    cfg = MonteCarloConfig(
        samples_per_batch=args.samples, batches=args.batches,
        sample_size=args.sample_size, max_length=args.max_length,
        master_seed=args.seed, aggregation=agg,
    )
    t0 = time.perf_counter()
    if args.target is not None:
        rep = convergence_loop(g, cfg, args.target, args.sample_cap,
                               workers=args.workers)
    else:
        rep = run_monte_carlo(g, cfg, workers=args.workers)
    wall = time.perf_counter() - t0
    rows = [ReportRow(r.length, None, None, r.estimate,
                      *estimate_ratios(r.estimate), r.stderr)
            for r in rep.rows]
    # worker count is an execution detail: reports must be byte-identical
    # for a given (graph, config, seed) regardless of parallelism
    config = {
        "samples_per_batch": cfg.samples_per_batch, "batches": cfg.batches,
        "sample_size": cfg.sample_size, "max_length": cfg.max_length,
        "seed": cfg.master_seed, "aggregation": cfg.aggregation,
        "total_samples": rep.total_samples,
        "short_samples": rep.short_samples,
    }
    extra = {"cycles_found": {r.length: r.cycles_found for r in rep.rows}}
    if args.target is not None:
        extra["converged_lengths"] = list(rep.converged_lengths)
        extra["failed_lengths"] = list(rep.failed_lengths)
    _emit(args, _report(args, g, "monte-carlo", rows, config=config,
                        extra=extra, wall=wall))
    if args.target is not None and rep.failed_lengths:
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def _cmd_orbits(args) -> int:
    g = _load(args)
    if args.max_length < 1:
        raise ValueError("max_length must be >= 1")
    # lengths 1 and 2 hold no orbit, so the census always runs to length 3
    oc = primitive_orbit_counts(g, max(args.max_length, 3))
    rows = _table_rows(balance_table(oc))[2:]
    _emit(args, _report(args, g, "orbits", rows,
                        config={"max_length": args.max_length}))
    return EXIT_OK


def _cmd_walks(args) -> int:
    g = _load(args)
    # the table reports closed-walk ratios only, not the walk counts
    rows = [ReportRow(r.length, ratio=_f(r.ratio_negative),
                      neg_to_pos=_f(r.neg_to_pos), clustering=_f(r.clustering))
            for r in walk_ratios(g, args.max_length)]
    _emit(args, _report(args, g, "walks", rows,
                        config={"max_length": args.max_length}))
    return EXIT_OK


def _cmd_lowexact(args) -> int:
    g = _load(args)
    table = exact_low_order_ratios(g)
    _emit(args, _report(args, g, "exact", _table_rows(table),
                        config={"max_length": 3}))
    return EXIT_OK


def _null_rows(g, table: BalanceTable, p_override):
    p = p_override if p_override is not None else g.negative_edge_fraction()
    rows = []
    for r in _table_rows(table):
        tot = r.n_pos + r.n_neg
        if tot >= 1:
            band = null_band(p, r.length, tot)
            lo, hi = band.lower, band.upper
        else:
            lo = hi = None
        rows.append(replace(r, null_ratio=null_ratio(p, r.length),
                            null_lo=lo, null_hi=hi))
    return rows, p


def _cmd_null(args) -> int:
    g = _load(args)
    table = balance_table(cycle_census(g, args.max_length))
    rows, p = _null_rows(g, table, args.null_p)
    _emit(args, _report(args, g, "null", rows,
                        config={"max_length": args.max_length, "p": p}))
    return EXIT_OK


def _cmd_shufflenull(args) -> int:
    g = _load(args)
    res = shuffle_null(g, args.max_length, args.shuffles, seed=args.seed)
    rows = [replace(r, stderr=res.spread[r.length])
            for r in _table_rows(res.mean)]
    _emit(args, _report(args, g, "null", rows,
                        config={"max_length": args.max_length,
                                "shuffles": args.shuffles,
                                "seed": args.seed}))
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
    rows = _table_rows(table)
    extra = {"xi": _f(fit.xi) if math.isfinite(fit.xi) else "inf",
             "two_xi": _f(fit.two_xi) if math.isfinite(fit.two_xi) else "inf",
             "fit_lengths": list(fit.fit_lengths),
             "residual": _f(fit.residual),
             "boundary": fit.boundary}
    _emit(args, _report(args, g, "fit", rows,
                        config={"max_length": args.max_length}, extra=extra))
    return EXIT_OK


def _cmd_report(args) -> int:
    g = _load(args)
    t0 = time.perf_counter()
    table = balance_table(cycle_census(g, args.max_length))
    rows, p = _null_rows(g, table, args.null_p)
    wall = time.perf_counter() - t0
    _emit(args, _report(args, g, "exact", rows,
                        config={"max_length": args.max_length, "p": p},
                        wall=wall))
    return EXIT_OK


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
