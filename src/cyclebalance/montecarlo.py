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

Each round's new samples of a batch are cut into runs of at most ``_RUN``
consecutive samples, the same runs for every worker count.  This process
draws every sample and builds the one graph that each task counts: under
``pooled`` aggregation a run's samples laid side by side, whose counts are
the exact integer sums of theirs, so the batch sums do not depend on how
a batch is split; under ``mean-of-ratios`` one sample.  With
one worker the censuses run in this process; otherwise the workers of the
pool in ``parallel``, created on first use and living until the
interpreter exits, only count.

No task's counts are kept once read.  Each batch holds two running sums
per length whose quotient is its mean: negative cycles and all cycles
under ``pooled``; under ``mean-of-ratios`` the sum of the defined sample
ratios, added in sample order, and their number.  So the driver holds
O(batches x max_length) sums, plus the tasks ``parallel`` has submitted
and not yet read: at most 2 x workers + 1, of at most ``_RUN`` samples
each, whatever the sample count.
"""

from __future__ import annotations

import math
from contextlib import closing
from dataclasses import dataclass, replace
from itertools import islice
from typing import Callable, Iterator, Sequence

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
# samples of one batch per pooled task at most; runs of 16 ran ~5 % slower
_RUN = 128


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
    # rows[l - 1] is length l's: R the mean of the defined batch means,
    # stderr twice their standard deviation over sqrt(their number); no counts
    rows: tuple[BalanceRow, ...]
    cycles_found: tuple[int, ...]  # index l-1 -> cycles over all samples
    short_samples: int             # samples truncated by a small component
    converged_lengths: tuple[int, ...] = ()
    failed_lengths: tuple[int, ...] = ()
    total_samples: int = 0


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


def _rounds(g: SignedDigraph, cfg: MonteCarloConfig, workers: int,
            progress: Callable[[int, dict], None] | None
            ) -> Iterator[MonteCarloReport]:
    """The report of each round: the first has ``cfg.samples_per_batch``
    samples per batch, and each later round draws as many more.  Tasks are
    read in batch order, so when a batch's last task of a round is read
    every batch's running sums (module docstring) are whole, and
    ``progress`` sees the rows of all batches with samples."""
    if workers < 1:
        raise ValueError("workers must be >= 1")
    L, pooled = cfg.max_length, cfg.aggregation == "pooled"
    num = [[0] * cfg.batches for _ in range(L)]
    den = [[0] * cfg.batches for _ in range(L)]
    found = [0] * L
    short = 0

    def induced(b, sample):
        nonlocal short
        rng = _sample_rng(cfg.master_seed, b, sample)
        vs, cut = sample_connected_vertex_set(g, rng, cfg.sample_size)
        short += cut
        return g.induced_subgraph(vs)[0]

    def graphs(runs):
        # drawn as the census reads them, not a batch at a time
        for b, lo, hi in runs:
            subs = (induced(b, sample) for sample in range(lo, hi))
            yield from [disjoint_union(list(subs))] if pooled else subs

    def rows():
        return tuple(_batch_row(k + 1, [n / d for n, d in zip(num[k], den[k])
                                        if d])
                     for k in range(L))

    first = 0
    while True:
        end = cfg.samples_per_batch
        runs = [(b, lo, min(lo + _RUN, end))
                for b in range(cfg.batches) for lo in range(first, end, _RUN)]
        tasks = len(runs) if pooled else cfg.batches * (end - first)
        # closed before the yield: no caller holds the pool between rounds
        with closing(census_map(cycle_census, graphs(runs), tasks, L,
                                workers)) as censuses:
            for b, lo, hi in runs:
                for c in islice(censuses, 1 if pooled else hi - lo):
                    for k, (p, n) in enumerate(zip(c.positive, c.negative)):
                        found[k] += p + n
                        if pooled:
                            num[k][b] += n
                            den[k][b] += p + n
                        elif p + n:
                            num[k][b] += n / (p + n)
                            den[k][b] += 1
                if hi == end and progress is not None:
                    progress(cfg.batches * first + (b + 1) * (hi - first),
                             {r.length: r.stderr for r in rows()})
        yield MonteCarloReport(
            config=cfg, rows=rows(), cycles_found=tuple(found),
            short_samples=short,
            total_samples=cfg.batches * cfg.samples_per_batch)
        first = end
        cfg = replace(cfg, samples_per_batch=2 * end)


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
    return next(_rounds(g, cfg, workers, progress))


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
    for report in _rounds(g, cfg, workers, progress):
        defined = [r for r in report.rows if r.ratio_negative is not None]
        pending = [r.length for r in defined
                   if r.stderr is None or r.stderr > target]
        converged = tuple(r.length for r in defined
                          if r.stderr is not None and r.stderr <= target)
        if not pending or 2 * report.total_samples > cap:
            return replace(report,
                           converged_lengths=converged,
                           failed_lengths=tuple(pending))
