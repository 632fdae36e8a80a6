"""Monte Carlo estimation of balance ratios on large networks.

Connected vertex sets are drawn by seeded snowball expansion, the exact
engine counts signed cycles on each induced subgraph, and batch means give
the estimate and its spread.  Every sample's random stream is derived from
(master_seed, round, batch, sample), so results are bit-identical for a
given configuration regardless of worker count or scheduling.

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
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .engine import cycle_census
from .graph import GraphError, SignedDigraph, disjoint_union

__all__ = [
    "MonteCarloConfig",
    "MonteCarloRow",
    "MonteCarloReport",
    "sample_connected_vertex_set",
    "run_monte_carlo",
    "convergence_loop",
    "mean_and_2sigma",
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


@dataclass(frozen=True)
class MonteCarloRow:
    length: int
    estimate: float | None       # mean over defined batch means
    stderr: float | None         # 2 * std(batch means) / sqrt(batches used)
    cycles_found: int            # total cycles of this length over all samples
    batches_used: int


@dataclass(frozen=True)
class MonteCarloReport:
    config: MonteCarloConfig
    rows: tuple[MonteCarloRow, ...]
    short_samples: int           # samples truncated by a small component
    wall_time_s: float
    converged_lengths: tuple[int, ...] = ()
    failed_lengths: tuple[int, ...] = ()
    total_samples: int = 0

    def row(self, length: int) -> MonteCarloRow:
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


def mean_and_2sigma(values: Sequence[float]
                    ) -> tuple[float | None, float | None]:
    """Mean of ``values`` and twice their sample standard deviation.

    The mean is None without values, the deviation with fewer than two.
    """
    n = len(values)
    if n == 0:
        return None, None
    mean = sum(values) / n
    if n < 2:
        return mean, None
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, 2.0 * math.sqrt(var)


def _batch_stats(batch_means, k: int) -> tuple[float | None, float | None, int]:
    """Estimate, 2-sigma standard error and number of defined batch means
    at length index ``k``."""
    means = [bm[k] for bm in batch_means if bm[k] is not None]
    est, two_sigma = mean_and_2sigma(means)
    stderr = None if two_sigma is None else two_sigma / math.sqrt(len(means))
    return est, stderr, len(means)


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

    The estimate per length is the mean of defined batch ratios; the reported
    uncertainty is twice the standard deviation of batch means over
    sqrt(#batches used).  ``workers`` processes draw the samples; 1 draws
    them in this process.  Each task censuses a run of samples of one batch
    (module docstring).
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    t0 = time.perf_counter()
    L = cfg.max_length
    tasks = [(cfg, round_index, *run) for run in _runs(cfg, workers)]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        # numpy loads its random module on first use: load it here, once,
        # so that forked workers do not each load it again
        import numpy.random  # noqa: F401

        with ProcessPoolExecutor(max_workers=workers, initializer=_pool_init,
                                 initargs=(g,)) as pool:
            results = list(pool.map(_pool_task, tasks))
    else:
        results = [_census_run(g, *t) for t in tasks]

    short_samples = sum(short for _, short in results)
    batch_means: list[list[float | None]] = []
    cycles_found = [0] * L
    per_batch = len(tasks) // cfg.batches
    for b in range(cfg.batches):
        counts = [c for run, _ in results[b * per_batch:(b + 1) * per_batch]
                  for c in run]
        for pos, neg in counts:
            for k in range(L):
                cycles_found[k] += pos[k] + neg[k]
        batch_means.append(_batch_ratio(cfg.aggregation, counts))
        if progress is not None:
            progress((b + 1) * cfg.samples_per_batch,
                     _stderr_snapshot(batch_means, L))

    rows = []
    for k in range(L):
        est, stderr, used = _batch_stats(batch_means, k)
        rows.append(MonteCarloRow(k + 1, est, stderr, cycles_found[k], used))
    return MonteCarloReport(
        config=cfg,
        rows=tuple(rows),
        short_samples=short_samples,
        wall_time_s=time.perf_counter() - t0,
        total_samples=cfg.batches * cfg.samples_per_batch,
    )


def _stderr_snapshot(batch_means, L) -> dict[int, float | None]:
    return {k + 1: _batch_stats(batch_means, k)[1] for k in range(L)}


def convergence_loop(g: SignedDigraph, cfg: MonteCarloConfig, target: float,
                     cap: int, *, workers: int = 1,
                     progress: Callable[[int, dict], None] | None = None
                     ) -> MonteCarloReport:
    """Double the per-batch sample count until every length with data has a
    2-sigma half-width below ``target``, or the total sample cap is reached.

    Lengths that never produced a cycle stay undefined and do not block
    convergence; the report lists converged and failed lengths.
    """
    if target <= 0:
        raise ValueError("target must be positive")
    round_index = 0
    total = 0
    current = cfg
    while True:
        report = run_monte_carlo(g, current, workers=workers,
                                 progress=progress, round_index=round_index)
        total += report.total_samples
        defined = [r for r in report.rows if r.estimate is not None]
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
