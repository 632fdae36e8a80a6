"""Monte Carlo estimation of balance ratios on large networks.

Connected vertex sets are drawn by seeded snowball expansion, the exact
engine counts signed cycles on each induced subgraph, and batch means give
the estimate and its spread.  The report's rows are ``BalanceRow``s without
counts: R is the mean of the batch means, U and K follow from it, and
stderr is the 2-sigma error of R.  The cycles seen at each length are
summed over all samples in the report's ``cycles_found``.

Every sample's random stream is derived from (master_seed, round, batch,
sample), so results are bit-identical for a given configuration regardless
of worker count or scheduling.

A run of consecutive samples of one batch is one task: one run per batch,
or, with fewer batches than workers, enough runs that no worker sits idle.
Under ``pooled`` aggregation a run lays its samples' induced subgraphs side
by side and counts them in one census: its cycles are those of the
samples, so its counts are their exact integer sums, and the batch sums
do not depend on how a batch is split.  Under ``mean-of-ratios`` each
sample is a census of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .engine import BalanceRow, balance_row, cycle_census, mean_and_2sigma
from .graph import GraphError, SignedDigraph, disjoint_union

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


def _sample_rng(master_seed: int, round_index: int, batch: int, sample: int
                ) -> np.random.Generator:
    return np.random.default_rng([master_seed, round_index, batch, sample])


# worker-process state for the process pool
_POOL_GRAPH: SignedDigraph | None = None


def _pool_init(g: SignedDigraph):
    global _POOL_GRAPH
    _POOL_GRAPH = g


def _pool_task(args):
    return _census_run(_POOL_GRAPH, *args)


def _census_run(g, cfg: MonteCarloConfig, round_index, batch, first, stop):
    """Census samples first..stop-1 of one batch: the (positive, negative)
    counts of their union under pooled aggregation, else of each sample;
    and how many samples were short."""
    subs, short = [], 0
    for sample in range(first, stop):
        rng = _sample_rng(cfg.master_seed, round_index, batch, sample)
        vs, cut = sample_connected_vertex_set(g, rng, cfg.sample_size)
        short += cut
        subs.append(g.induced_subgraph(vs)[0])
    if cfg.aggregation == "pooled":
        subs = [disjoint_union(subs)]
    censuses = (cycle_census(sub, cfg.max_length) for sub in subs)
    return [(c.positive, c.negative) for c in censuses], short


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


def _runs(cfg: MonteCarloConfig, workers: int) -> list[tuple[int, int, int]]:
    """(batch, first sample, stop) of each task: every batch is split into
    the same number of runs, as few as keep ``workers`` busy."""
    k = cfg.samples_per_batch
    pieces = min(k, -(-workers // cfg.batches))
    cuts = [k * i // pieces for i in range(pieces + 1)]
    return [(b, lo, hi) for b in range(cfg.batches)
            for lo, hi in zip(cuts, cuts[1:])]


def run_monte_carlo(g: SignedDigraph, cfg: MonteCarloConfig, *,
                    workers: int = 1,
                    progress: Callable[[int, dict], None] | None = None,
                    round_index: int = 0) -> MonteCarloReport:
    """Draw batches of snowball samples and aggregate exact censuses of them.

    R per length is the mean of the defined batch ratios; its stderr is
    twice the standard deviation of those batch means over sqrt(their
    number).  Up to ``workers`` processes, no more than there are tasks,
    draw the samples; 1 draws them in this process.  Each task censuses a
    run of samples of one batch (module docstring).  ``progress`` is called
    after each batch with the samples so far and each length's stderr.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    L = cfg.max_length
    tasks = [(cfg, round_index, *run) for run in _runs(cfg, workers)]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        # numpy loads its random module on first use: load it here, once,
        # so that forked workers do not each load it again
        import numpy.random  # noqa: F401

        # a fork-context pool starts all its processes on the first map
        with ProcessPoolExecutor(max_workers=min(workers, len(tasks)),
                                 initializer=_pool_init,
                                 initargs=(g,)) as pool:
            results = list(pool.map(_pool_task, tasks))
    else:
        results = [_census_run(g, *t) for t in tasks]

    # per length index, the defined batch means so far
    means: list[list[float]] = [[] for _ in range(L)]
    cycles_found = [0] * L
    per_batch = len(tasks) // cfg.batches
    for b in range(cfg.batches):
        counts = [c for run, _ in results[b * per_batch:(b + 1) * per_batch]
                  for c in run]
        for pos, neg in counts:
            for k in range(L):
                cycles_found[k] += pos[k] + neg[k]
        for k, mean in enumerate(_batch_ratio(cfg.aggregation, counts)):
            if mean is not None:
                means[k].append(mean)
        if progress is not None:
            progress((b + 1) * cfg.samples_per_batch,
                     {k + 1: _batch_row(k + 1, m).stderr
                      for k, m in enumerate(means)})

    return MonteCarloReport(
        config=cfg,
        rows=tuple(_batch_row(k + 1, m) for k, m in enumerate(means)),
        cycles_found=tuple(cycles_found),
        short_samples=sum(short for _, short in results),
        total_samples=cfg.batches * cfg.samples_per_batch,
    )


def convergence_loop(g: SignedDigraph, cfg: MonteCarloConfig, target: float,
                     cap: int, *, workers: int = 1,
                     progress: Callable[[int, dict], None] | None = None
                     ) -> MonteCarloReport:
    """Double the per-batch sample count until every length with data has a
    2-sigma half-width below ``target``, or the total sample cap is reached.

    Lengths that never produced a cycle stay undefined and do not block
    convergence; the report lists converged and failed lengths.
    ``progress`` counts the samples of all rounds so far.
    """
    if target <= 0:
        raise ValueError("target must be positive")
    round_index = 0
    total = 0
    current = cfg

    def cumulative(done: int, snapshot: dict) -> None:
        # done counts this round's samples; total, the earlier rounds'
        progress(total + done, snapshot)

    while True:
        report = run_monte_carlo(
            g, current, workers=workers,
            progress=None if progress is None else cumulative,
            round_index=round_index)
        total += report.total_samples
        defined = [r for r in report.rows if r.ratio_negative is not None]
        pending = [r.length for r in defined
                   if r.stderr is None or r.stderr > target]
        converged = tuple(r.length for r in defined
                          if r.stderr is not None and r.stderr <= target)
        if not pending or total >= cap:
            return replace(report,
                           converged_lengths=converged,
                           failed_lengths=tuple(pending),
                           total_samples=total)
        round_index += 1
        current = replace(current,
                          samples_per_batch=current.samples_per_batch * 2)
