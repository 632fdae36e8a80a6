"""Monte Carlo estimation of balance ratios on large networks.

Connected vertex sets are drawn by seeded snowball expansion, the exact
engine counts signed cycles on each induced subgraph, and batch means give
the estimate and its spread.  The report's rows are ``BalanceRow``s without
counts: R is the mean of the batch means, U and K follow from it, and
stderr is the 2-sigma error of R.  The cycles seen at each length are
summed over all samples in the report's ``cycles_found``.

Every sample's random stream is derived from (master_seed, 0, batch,
sample) alone, so results are bit-identical for a given configuration
regardless of worker count or scheduling, and the convergence loop's
rounds extend the batches they kept instead of drawing them again.

This process draws every sample and builds each task's graph; a task is
one graph and its census.  Under ``pooled`` aggregation the graph is a run
of consecutive samples of one batch laid side by side: one run per batch,
or, with fewer batches than workers, enough runs that no worker sits idle.
Its cycles are those of the samples, so its counts are their exact integer
sums, and the batch sums do not depend on how a batch is split.  Under
``mean-of-ratios`` each sample is a task of its own.  With one worker the
censuses run in this process; otherwise the workers of the pool in
``parallel``, which is created on first use and lives until the
interpreter exits, only count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .engine import BalanceRow, balance_row, cycle_census, mean_and_2sigma
from .graph import GraphError, SignedDigraph, disjoint_union
from .parallel import census_map

__all__ = [
    "MonteCarloConfig",
    "MonteCarloReport",
    "sample_connected_vertex_set",
    "run_monte_carlo",
    "convergence_loop",
]

AGGREGATIONS = ("pooled", "mean-of-ratios")


@dataclass(frozen=True)
class MonteCarloConfig:
    samples_per_batch: int
    batches: int
    sample_size: int
    max_length: int
    master_seed: int = 0
    aggregation: str = "pooled"

    def __post_init__(self):
        if self.samples_per_batch < 1:
            raise ValueError("samples_per_batch must be >= 1")
        if self.batches < 2:
            raise ValueError("need >= 2 batches for a defined deviation")
        if self.max_length < 1:
            raise ValueError(f"max_length must be >= 1, got {self.max_length}")
        if self.sample_size < self.max_length:
            raise ValueError(
                f"sample_size {self.sample_size} < max_length "
                f"{self.max_length}: a length-l cycle needs l vertices"
            )
        if self.aggregation not in AGGREGATIONS:
            raise ValueError(f"aggregation must be one of {AGGREGATIONS}")
        if self.master_seed < 0:
            raise ValueError(
                f"master_seed must be >= 0, got {self.master_seed}")


@dataclass(frozen=True)
class MonteCarloReport:
    config: MonteCarloConfig
    # per length, R is the mean of the defined batch means and stderr twice
    # their standard deviation over sqrt(their number); no counts
    rows: tuple[BalanceRow, ...]
    cycles_found: tuple[int, ...]  # index l-1 -> cycles over all samples
    short_samples: int             # samples truncated by a small component
    converged_lengths: tuple[int, ...] = ()
    failed_lengths: tuple[int, ...] = ()
    total_samples: int = 0

    def row(self, length: int) -> BalanceRow:
        for r in self.rows:
            if r.length == length:
                return r
        raise KeyError(length)


def sample_connected_vertex_set(g: SignedDigraph, rng: np.random.Generator,
                                size: int) -> tuple[tuple[int, ...], bool]:
    """Snowball sample: uniform seed vertex, then uniform neighbourhood grows.

    Returns (vertices, short) where short means the component was exhausted
    before reaching the requested size.
    """
    if g.vertex_count == 0:
        raise GraphError("cannot sample from an empty graph")
    seed = int(rng.integers(g.vertex_count))
    chosen = [seed]
    inside = {seed}
    # frontier is exactly the neighbourhood N(H): distinct outside vertices
    frontier = list(g.undirected_neighbours(seed))
    in_frontier = set(frontier)
    while len(chosen) < size and frontier:
        pick = int(rng.integers(len(frontier)))
        v = frontier[pick]
        frontier[pick] = frontier[-1]
        frontier.pop()
        in_frontier.discard(v)
        inside.add(v)
        chosen.append(v)
        for w in g.undirected_neighbours(v):
            if w not in inside and w not in in_frontier:
                frontier.append(w)
                in_frontier.add(w)
    short = len(chosen) < size
    return tuple(sorted(chosen)), short


def _sample_rng(master_seed: int, batch: int, sample: int
                ) -> np.random.Generator:
    # the fixed 0 keeps the streams, and so the reports, of earlier releases
    return np.random.default_rng([master_seed, 0, batch, sample])


def _batch_row(length: int, means: Sequence[float]) -> BalanceRow:
    """The row at ``length`` from its defined batch means: their mean, and
    twice their standard deviation over sqrt(their number)."""
    r, two_sigma = mean_and_2sigma(means)
    stderr = None if two_sigma is None else two_sigma / math.sqrt(len(means))
    return balance_row(length, r, stderr=stderr)


def _batch_ratio(agg: str, counts) -> list[float | None]:
    """Per-length batch means under the configured aggregation, from a
    batch's (positive, negative) counts: of each sample under
    ``mean-of-ratios``, of runs of samples under ``pooled``."""
    out: list[float | None] = []
    for ell_idx in range(len(counts[0][0])):
        pairs = [(pos[ell_idx], neg[ell_idx]) for pos, neg in counts]
        if agg == "pooled":
            neg = sum(n for _, n in pairs)
            tot = sum(p for p, _ in pairs) + neg
            out.append(None if tot == 0 else neg / tot)
        else:
            vals = [n / (p + n) for p, n in pairs if p + n > 0]
            out.append(None if not vals else sum(vals) / len(vals))
    return out


def _runs(cfg: MonteCarloConfig, workers: int, first: int = 0
          ) -> list[tuple[int, int, int]]:
    """(batch, first sample, stop) of each run of samples ``first`` ..
    ``samples_per_batch`` - 1: every batch is split into the same number
    of runs, as few as keep ``workers`` busy."""
    k = cfg.samples_per_batch - first
    pieces = min(k, -(-workers // cfg.batches))
    cuts = [first + k * i // pieces for i in range(pieces + 1)]
    return [(b, lo, hi) for b in range(cfg.batches)
            for lo, hi in zip(cuts, cuts[1:])]


class _Tally:
    """Every batch's (positive, negative) counts so far, one pair per run
    under pooled aggregation and per sample otherwise, with each batch's
    means and the number of short samples."""

    def __init__(self, cfg: MonteCarloConfig):
        self.counts: list[list] = [[] for _ in range(cfg.batches)]
        self.means: list[list[float | None] | None] = [None] * cfg.batches
        self.short = 0

    def add(self, g: SignedDigraph, cfg: MonteCarloConfig, first: int,
            workers: int, progress: Callable[[int, dict], None] | None
            ) -> None:
        """Draw samples ``first`` .. ``cfg.samples_per_batch`` - 1 of every
        batch in this process and census them, in this process or on the
        worker pool, calling ``progress`` as each batch completes."""
        if workers < 1:
            raise ValueError("workers must be >= 1")
        pooled = cfg.aggregation == "pooled"
        runs = _runs(cfg, workers if pooled else 1, first)

        def graphs():
            for b, lo, hi in runs:
                subs = []
                for sample in range(lo, hi):
                    rng = _sample_rng(cfg.master_seed, b, sample)
                    vs, short = sample_connected_vertex_set(
                        g, rng, cfg.sample_size)
                    self.short += short
                    subs.append(g.induced_subgraph(vs)[0])
                yield from [disjoint_union(subs)] if pooled else subs

        owners = [b for b, lo, hi in runs
                  for _ in range(1 if pooled else hi - lo)]
        censuses = census_map(cycle_census, graphs(), len(owners),
                              cfg.max_length, workers)
        for i, (b, c) in enumerate(zip(owners, censuses)):
            self.counts[b].append((c.positive, c.negative))
            if i + 1 < len(owners) and owners[i + 1] == b:
                continue
            self.means[b] = _batch_ratio(cfg.aggregation, self.counts[b])
            if progress is not None:
                done = (cfg.batches * first
                        + (b + 1) * (cfg.samples_per_batch - first))
                progress(done, {r.length: r.stderr
                                for r in self.rows(cfg.max_length)})

    def rows(self, max_length: int) -> tuple[BalanceRow, ...]:
        """Per length, the row from the defined means of the batches with
        samples."""
        means = [m for m in self.means if m is not None]
        return tuple(_batch_row(k + 1, [m[k] for m in means
                                        if m[k] is not None])
                     for k in range(max_length))

    def report(self, cfg: MonteCarloConfig) -> MonteCarloReport:
        L = cfg.max_length
        found = [0] * L
        for pos, neg in (c for batch in self.counts for c in batch):
            for k in range(L):
                found[k] += pos[k] + neg[k]
        return MonteCarloReport(
            config=cfg,
            rows=self.rows(L),
            cycles_found=tuple(found),
            short_samples=self.short,
            total_samples=cfg.batches * cfg.samples_per_batch,
        )


def run_monte_carlo(g: SignedDigraph, cfg: MonteCarloConfig, *,
                    workers: int = 1,
                    progress: Callable[[int, dict], None] | None = None
                    ) -> MonteCarloReport:
    """Draw batches of snowball samples and aggregate exact censuses of them.

    R per length is the mean of the defined batch ratios; its stderr is
    twice the standard deviation of those batch means over sqrt(their
    number).  This process draws every sample and builds each task's
    graph: a run's samples side by side under pooled aggregation, a single
    sample otherwise (module docstring).  With ``workers`` 1 it also
    counts them; otherwise min(workers, tasks) processes of the worker
    pool do (``parallel``), which lives until the interpreter exits and
    serves later calls.  ``progress`` is called after each batch with the
    samples so far and each length's stderr.
    """
    tally = _Tally(cfg)
    tally.add(g, cfg, 0, workers, progress)
    return tally.report(cfg)


def convergence_loop(g: SignedDigraph, cfg: MonteCarloConfig, target: float,
                     cap: int, *, workers: int = 1,
                     progress: Callable[[int, dict], None] | None = None
                     ) -> MonteCarloReport:
    """Double the per-batch sample count until every length with data has a
    2-sigma half-width below ``target``, or the next doubling would take
    the total sample count above ``cap``.  The first round always runs.

    Each round draws only the new samples k .. 2k - 1 of every batch and
    adds their counts to those kept, so the report equals that of
    ``run_monte_carlo`` at the final sample count, apart from the
    converged and failed lengths.  Lengths that never produced a cycle
    stay undefined and do not block convergence.  ``progress`` counts the
    samples of all rounds so far.
    """
    if target <= 0:
        raise ValueError("target must be positive")
    tally = _Tally(cfg)
    first, current = 0, cfg
    while True:
        tally.add(g, current, first, workers, progress)
        report = tally.report(current)
        defined = [r for r in report.rows if r.ratio_negative is not None]
        pending = [r.length for r in defined
                   if r.stderr is None or r.stderr > target]
        converged = tuple(r.length for r in defined
                          if r.stderr is not None and r.stderr <= target)
        if not pending or 2 * report.total_samples > cap:
            return replace(report,
                           converged_lengths=converged,
                           failed_lengths=tuple(pending))
        first = current.samples_per_batch
        current = replace(current, samples_per_batch=2 * first)
