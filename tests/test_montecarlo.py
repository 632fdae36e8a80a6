import concurrent.futures
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cyclebalance import montecarlo
from cyclebalance.engine import balance_row, cycle_census, mean_and_2sigma
from cyclebalance.graph import SignedDigraph, complete_graph, parse_edge_list
from cyclebalance.montecarlo import (MonteCarloConfig, convergence_loop,
                                     run_monte_carlo,
                                     sample_connected_vertex_set)
from _util import clustered_graph, random_signed_digraph

TRIAD = parse_edge_list("0 1 1\n0 2 1\n1 2 -1", undirected=True)


def test_config_validation():
    with pytest.raises(ValueError):
        MonteCarloConfig(0, 2, 5, 5)
    with pytest.raises(ValueError):
        MonteCarloConfig(1, 1, 5, 5)
    with pytest.raises(ValueError):
        MonteCarloConfig(1, 2, 4, 5)   # sample_size < max_length
    with pytest.raises(ValueError):
        MonteCarloConfig(1, 2, 5, 5, aggregation="median")
    with pytest.raises(ValueError, match="workers"):
        run_monte_carlo(TRIAD, MonteCarloConfig(1, 2, 3, 3), workers=0)
    with pytest.raises(ValueError, match="master_seed must be >= 0"):
        MonteCarloConfig(1, 2, 5, 5, master_seed=-1)


@pytest.mark.parametrize("sample_size, max_length", [(0, 0), (3, -1)])
def test_config_rejects_max_length_below_one(sample_size, max_length):
    # at construction, not later from a census in a worker process
    with pytest.raises(ValueError, match="max_length must be >= 1"):
        MonteCarloConfig(1, 2, sample_size, max_length)


def test_snowball_forced_path():
    rng = np.random.default_rng(1)
    path = parse_edge_list("0 1 1\n1 2 1", undirected=True)
    vs, short = sample_connected_vertex_set(path, rng, 3)
    assert vs == (0, 1, 2) and not short


def test_snowball_short_component():
    rng = np.random.default_rng(2)
    g = parse_edge_list("0 1 1\n1 0 1\n2 3 1\n3 2 1")
    vs, short = sample_connected_vertex_set(g, rng, 4)
    assert short and len(vs) == 2


def test_snowball_connected_and_sized(rng):
    for _ in range(25):
        g = random_signed_digraph(rng, max_vertices=12, edge_prob=0.25)
        if g.vertex_count == 0:
            continue
        gen = np.random.default_rng(rng.randint(0, 2**32))
        size = rng.randint(1, g.vertex_count)
        vs, short = sample_connected_vertex_set(g, gen, size)
        assert len(vs) <= size
        if not short:
            assert len(vs) == size
        sub, _ = g.induced_subgraph(vs)
        # weak connectivity check by traversal
        seen = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for w in sub.undirected_neighbours(v):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        assert len(seen) == sub.vertex_count


def test_snowball_deterministic():
    g = complete_graph(10)
    a, _ = sample_connected_vertex_set(g, np.random.default_rng(42), 5)
    b, _ = sample_connected_vertex_set(g, np.random.default_rng(42), 5)
    assert a == b and len(a) == 5


def test_run_reproducible_and_worker_independent():
    g = parse_edge_list(
        "0 1 1\n1 2 -1\n2 3 1\n3 4 -1\n4 0 1\n1 3 1\n0 2 -1", undirected=True)
    cfg = MonteCarloConfig(6, 3, 4, 4, master_seed=11)
    r1 = run_monte_carlo(g, cfg)
    r2 = run_monte_carlo(g, cfg)
    r3 = run_monte_carlo(g, cfg, workers=2)
    key = lambda rep: (rep.rows, rep.cycles_found)
    assert key(r1) == key(r2) == key(r3)


def test_full_coverage_equals_exact():
    cfg = MonteCarloConfig(5, 2, 3, 3, master_seed=3)
    rep = run_monte_carlo(TRIAD, cfg)
    exact = cycle_census(TRIAD, 3)
    assert rep.row(2).ratio_negative == 0.0
    assert rep.row(2).stderr == 0.0
    assert rep.row(3).ratio_negative == exact.n_neg(3) / exact.total(3) == 1.0


def test_all_positive_zero_variance():
    g = complete_graph(6)
    cfg = MonteCarloConfig(4, 3, 4, 4, master_seed=5)
    rep = run_monte_carlo(g, cfg)
    for ell in (2, 3, 4):
        assert rep.row(ell).ratio_negative == 0.0
        assert rep.row(ell).stderr == 0.0


def test_unobserved_lengths_undefined():
    cfg = MonteCarloConfig(3, 2, 3, 3, master_seed=1)
    g = parse_edge_list("0 1 1\n1 0 1\n1 2 1\n2 1 1")  # path: no 3-cycles
    rep = run_monte_carlo(g, cfg)
    assert rep.row(3).ratio_negative is None
    assert rep.cycles_found[2] == 0


def test_aggregation_modes_differ_sensibly():
    g = parse_edge_list(
        "0 1 1\n1 2 -1\n2 0 1\n2 3 1\n3 4 1\n4 2 1", undirected=True)
    pooled = run_monte_carlo(g, MonteCarloConfig(8, 3, 3, 3, 7, "pooled"))
    mean = run_monte_carlo(g, MonteCarloConfig(8, 3, 3, 3, 7, "mean-of-ratios"))
    for rep in (pooled, mean):
        r = rep.row(3).ratio_negative
        if r is not None:
            assert 0.0 <= r <= 1.0


def test_pooled_estimates_in_unit_interval(rng):
    for _ in range(5):
        g = random_signed_digraph(rng, max_vertices=12, edge_prob=0.3,
                                  undirected=True)
        if g.edge_count == 0:
            continue
        cfg = MonteCarloConfig(4, 2, 4, 4, master_seed=rng.randint(0, 999))
        rep = run_monte_carlo(g, cfg)
        for row in rep.rows:
            if row.ratio_negative is not None:
                assert 0.0 <= row.ratio_negative <= 1.0


def test_convergence_loop_progress_is_cumulative():
    # an unreachable target and a cap of 12 samples: rounds of 4 and 8
    g = clustered_graph(42, 3, clusters=3, size=12)
    cfg = MonteCarloConfig(2, 2, 6, 4, master_seed=1)
    done = []
    report = convergence_loop(g, cfg, target=1e-9, cap=12,
                              progress=lambda n, _: done.append(n))
    assert report.failed_lengths
    assert done == [2, 4, 8, 12]
    assert done[-1] == report.total_samples


def test_progress_hook_called():
    calls = []
    cfg = MonteCarloConfig(2, 3, 3, 3, master_seed=0)
    report = run_monte_carlo(
        TRIAD, cfg, progress=lambda done, snap: calls.append((done, snap)))
    assert [done for done, _ in calls] == [2, 4, 6]
    assert calls[-1][1] == {r.length: r.stderr for r in report.rows}


def test_convergence_loop_immediate():
    cfg = MonteCarloConfig(4, 2, 3, 3, master_seed=2)
    rep = convergence_loop(TRIAD, cfg, target=0.5, cap=1000)
    assert not rep.failed_lengths
    assert set(rep.converged_lengths) == {2, 3}


def test_convergence_loop_cap_flags_partial(rng):
    g = random_signed_digraph(rng, max_vertices=14, edge_prob=0.3,
                              undirected=True)
    cfg = MonteCarloConfig(2, 2, 4, 4, master_seed=4)
    rep = convergence_loop(g, cfg, target=1e-9, cap=8)
    assert rep.total_samples >= 4
    # with such a tiny target something must usually fail to converge;
    # accept either outcome but require the flags to be consistent
    defined = {r.length for r in rep.rows if r.ratio_negative is not None}
    assert set(rep.converged_lengths) | set(rep.failed_lengths) == defined


def _pooled_reference(g, cfg):
    """Rows and cycles found of a pooled run from a census of each sample,
    summed per batch."""
    L = cfg.max_length
    means, found = [], [0] * L
    for b in range(cfg.batches):
        pos, neg = [0] * L, [0] * L
        for s in range(cfg.samples_per_batch):
            rng = np.random.default_rng([cfg.master_seed, 0, b, s])
            vs, _ = sample_connected_vertex_set(g, rng, cfg.sample_size)
            census = cycle_census(g.induced_subgraph(vs)[0], L)
            for k in range(L):
                pos[k] += census.positive[k]
                neg[k] += census.negative[k]
                found[k] += census.positive[k] + census.negative[k]
        means.append([n / (p + n) if p + n else None
                      for p, n in zip(pos, neg)])
    rows = []
    for k in range(L):
        defined = [m[k] for m in means if m[k] is not None]
        est, two_sigma = mean_and_2sigma(defined)
        stderr = None if two_sigma is None else two_sigma / len(defined)**0.5
        rows.append(balance_row(k + 1, est, stderr=stderr))
    return tuple(rows), tuple(found)


def test_pooled_batches_equal_summed_sample_censuses():
    # a batch is one census of its samples side by side, split into runs
    # when batches are fewer than workers: 2, 2, 4 and 6 tasks here
    g = clustered_graph(42, 3, clusters=3, size=12)
    cfg = MonteCarloConfig(5, 2, 9, 6, master_seed=8)
    want_rows, want_found = _pooled_reference(g, cfg)
    for workers in (1, 2, 3, 5):
        rep = run_monte_carlo(g, cfg, workers=workers)
        assert rep.rows == want_rows, workers
        assert rep.cycles_found == want_found, workers
        assert rep.total_samples == 10
    assert sum(want_found[2:]) > 0


class _InProcessPool:
    """Stands in for ProcessPoolExecutor: records max_workers and maps in
    this process."""

    max_workers: list[int] = []

    def __init__(self, max_workers, initializer, initargs):
        self.max_workers.append(max_workers)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


def test_pool_capped_at_task_count(monkeypatch):
    # a fork-context pool starts all max_workers processes on its first map
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        _InProcessPool)
    monkeypatch.setattr(_InProcessPool, "max_workers", [])
    monkeypatch.setattr(montecarlo, "_POOL_GRAPH", None)
    cfg = MonteCarloConfig(5, 2, 3, 3)
    one = run_monte_carlo(TRIAD, cfg)
    for workers, pool in [(64, 10), (3, 3), (4, 4)]:
        assert run_monte_carlo(TRIAD, cfg, workers=workers) == one
        assert _InProcessPool.max_workers[-1] == pool, workers


def test_fewer_batches_than_workers_split_into_runs():
    cfg = MonteCarloConfig(5, 2, 3, 3)
    assert montecarlo._runs(cfg, 1) == [(0, 0, 5), (1, 0, 5)]
    for workers, tasks in [(2, 2), (3, 4), (5, 6), (64, 10)]:
        runs = montecarlo._runs(cfg, workers)
        assert len(runs) == tasks
        # every sample of every batch once, in order
        assert [(b, s) for b, lo, hi in runs for s in range(lo, hi)] == \
            [(b, s) for b in range(2) for s in range(5)]


_SPAWN_SCRIPT = """
import multiprocessing

from cyclebalance.graph import parse_edge_list
from cyclebalance.montecarlo import MonteCarloConfig, run_monte_carlo

if __name__ == "__main__":
    multiprocessing.set_start_method("spawn")
    g = parse_edge_list("0 1 1\\n1 2 -1\\n2 3 1\\n3 4 -1\\n4 0 1\\n"
                        "1 3 1\\n0 2 -1\\n5 6 1", undirected=True)
    for aggregation in ("pooled", "mean-of-ratios"):
        cfg = MonteCarloConfig(3, 2, 4, 4, 6, aggregation)
        one, two = (run_monte_carlo(g, cfg, workers=w) for w in (1, 2))
        assert one.short_samples > 0
        for rep in (one, two):
            print(aggregation, rep.rows, rep.short_samples,
                  rep.total_samples)
"""


def test_workers_agree_under_spawn(tmp_path):
    # spawned workers receive the graph and each task by pickling
    script = tmp_path / "spawn_run.py"
    script.write_text(_SPAWN_SCRIPT)
    src = Path(montecarlo.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, str(script)], env=env, text=True,
                         capture_output=True, timeout=120, check=True).stdout
    lines = out.splitlines()
    assert len(lines) == 4
    assert lines[0] == lines[1] and lines[2] == lines[3]
    assert lines[0].startswith("pooled ")
    assert lines[2].startswith("mean-of-ratios ")
