import multiprocessing
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from cyclebalance import montecarlo, parallel
from cyclebalance.engine import balance_row, cycle_census, mean_and_2sigma
from cyclebalance.graph import SignedDigraph, complete_graph, parse_edge_list
from cyclebalance.montecarlo import (MonteCarloConfig, convergence_loop,
                                     run_monte_carlo,
                                     sample_connected_vertex_set)
from cyclebalance.nullmodel import shuffle_null
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


@pytest.mark.parametrize("aggregation", ["pooled", "mean-of-ratios"])
def test_reports_identical_for_any_worker_count(aggregation):
    g = clustered_graph(42, 3, clusters=3, size=12)
    cfg = MonteCarloConfig(3, 2, 8, 5, master_seed=6,
                           aggregation=aggregation)
    one, two, three = (run_monte_carlo(g, cfg, workers=w) for w in (1, 2, 3))
    assert one == two == three
    assert one.short_samples > 0 and sum(one.cycles_found[2:]) > 0


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
    # an unreachable target and a cap of 8 samples: a round of 4, then 4
    # more that extend each batch from 2 samples to 4
    g = clustered_graph(42, 3, clusters=3, size=12)
    cfg = MonteCarloConfig(2, 2, 6, 4, master_seed=1)
    done = []
    report = convergence_loop(g, cfg, target=1e-9, cap=8,
                              progress=lambda n, _: done.append(n))
    assert report.failed_lengths
    assert done == [2, 4, 6, 8]
    assert done[-1] == report.total_samples


@pytest.mark.parametrize("aggregation", ["pooled", "mean-of-ratios"])
@pytest.mark.parametrize("workers", [1, 2])
def test_converged_report_equals_single_run(aggregation, workers):
    # rounds of 1, 2 and 4 samples per batch add only the new samples, so
    # the report is that of one run at the final count
    g = clustered_graph(42, 3, clusters=3, size=12)
    cfg = MonteCarloConfig(1, 3, 6, 5, master_seed=9,
                           aggregation=aggregation)
    looped = convergence_loop(g, cfg, target=1e-9, cap=12, workers=workers)
    assert looped.total_samples == 12
    assert looped.failed_lengths
    single = run_monte_carlo(g, replace(cfg, samples_per_batch=4))
    assert replace(looped, converged_lengths=(), failed_lengths=()) == single
    assert sum(single.cycles_found[2:]) > 0


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


def _worker_pids() -> set[int]:
    return {p.pid for p in multiprocessing.active_children()}


def test_pool_capped_at_task_count():
    # 2 batches of one sample are 2 tasks, whatever the workers asked for
    cfg = MonteCarloConfig(1, 2, 3, 3, master_seed=4)
    one = run_monte_carlo(TRIAD, cfg)
    assert run_monte_carlo(TRIAD, cfg, workers=3) == one
    assert parallel._POOL[0] == 2
    assert len(_worker_pids()) == 2
    # a single shuffle is a single task, counted in this process
    assert shuffle_null(TRIAD, 3, 1, workers=3) == shuffle_null(TRIAD, 3, 1)
    assert parallel._POOL[0] == 2


def test_pool_reused_by_equal_calls():
    cfg = MonteCarloConfig(3, 2, 4, 4, master_seed=2)
    run_monte_carlo(TRIAD, cfg, workers=2)
    pids = _worker_pids()
    assert len(pids) == 2
    run_monte_carlo(TRIAD, cfg, workers=2)
    shuffle_null(TRIAD, 3, 4, workers=2)
    assert _worker_pids() == pids


def test_convergence_rounds_share_pool():
    g = clustered_graph(42, 3, clusters=3, size=12)
    cfg = MonteCarloConfig(2, 2, 6, 4, master_seed=1)
    seen = []
    convergence_loop(g, cfg, target=1e-9, cap=16, workers=2,
                     progress=lambda n, _: seen.append(_worker_pids()))
    # rounds of 2, 2 and 4 new samples per batch, 2 batches each
    assert len(seen) == 6
    assert len(seen[0]) == 2
    assert all(pids == seen[0] for pids in seen)


def test_nested_call_of_another_size_shares_pool():
    # a progress callback that runs estimates of another size reads from
    # the live pool instead of shutting it down under the outer call
    g = clustered_graph(42, 3, clusters=3, size=12)
    cfg = MonteCarloConfig(2, 2, 6, 4, master_seed=1)
    inner_cfg = MonteCarloConfig(3, 2, 4, 4, master_seed=5)
    want = run_monte_carlo(g, inner_cfg), shuffle_null(g, 4, 3, seed=1)
    seen = []

    def progress(n, _):
        seen.append((run_monte_carlo(g, inner_cfg, workers=3),
                     shuffle_null(g, 4, 3, seed=1, workers=3),
                     _worker_pids()))

    assert run_monte_carlo(g, cfg, workers=2,
                           progress=progress) == run_monte_carlo(g, cfg)
    assert len(seen) == 2
    pids = seen[0][2]
    assert len(pids) == 2
    assert all((rep, null) == want and p == pids for rep, null, p in seen)
    assert parallel._POOL[0] == 2 and parallel._READERS == 0
    # with no call reading, the next call of another size replaces it
    run_monte_carlo(g, inner_cfg, workers=3)
    assert parallel._POOL[0] == 3


def test_threads_share_pool():
    g = clustered_graph(42, 3, clusters=3, size=12)
    cfgs = [MonteCarloConfig(2, 2, 6, 4, master_seed=s) for s in range(4)]
    want = [run_monte_carlo(g, cfg) for cfg in cfgs]
    # the pool starts in this thread; the threads ask for 2 and 3 workers
    run_monte_carlo(g, cfgs[0], workers=2)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(4) as threads:
            got = list(threads.map(
                lambda cfg, w: run_monte_carlo(g, cfg, workers=w),
                cfgs, [2, 3, 2, 3], timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert got == want
    assert parallel._READERS == 0


def _exit_in_worker(g, max_length):
    os._exit(1)


def test_broken_pool_is_replaced():
    graphs = [TRIAD, TRIAD]
    with pytest.raises(BrokenProcessPool):
        list(parallel.census_map(_exit_in_worker, graphs, 2, 3, 2))
    assert parallel._POOL is None
    cfg = MonteCarloConfig(1, 2, 3, 3)
    assert run_monte_carlo(TRIAD, cfg, workers=2) == run_monte_carlo(TRIAD,
                                                                     cfg)


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
from cyclebalance.nullmodel import shuffle_null

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
    for w in (1, 2):
        print("shuffle", shuffle_null(g, 5, 3, seed=2, workers=w))
"""


def _run_script(tmp_path, text: str) -> str:
    script = tmp_path / "script.py"
    script.write_text(text)
    src = Path(montecarlo.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, str(script)], env=env, text=True,
                          capture_output=True, timeout=120, check=True).stdout


def test_workers_agree_under_spawn(tmp_path):
    # spawned workers receive each task's graph by pickling
    lines = _run_script(tmp_path, _SPAWN_SCRIPT).splitlines()
    assert len(lines) == 6
    assert lines[0] == lines[1] and lines[2] == lines[3]
    assert lines[4] == lines[5]
    assert lines[0].startswith("pooled ")
    assert lines[2].startswith("mean-of-ratios ")
    assert lines[4].startswith("shuffle ")


_EXIT_SCRIPT = """
import multiprocessing

from cyclebalance.graph import parse_edge_list
from cyclebalance.montecarlo import MonteCarloConfig, run_monte_carlo

g = parse_edge_list("0 1 1\\n1 2 -1\\n2 0 1", undirected=True)
run_monte_carlo(g, MonteCarloConfig(2, 2, 3, 3), workers=2)
print(*(p.pid for p in multiprocessing.active_children()))
"""


def test_pool_workers_end_with_the_interpreter(tmp_path):
    # the pool is never shut down by the caller: the interpreter's exit
    # joins its workers, so run() returning means they are gone
    pids = [int(pid) for pid in _run_script(tmp_path, _EXIT_SCRIPT).split()]
    assert len(pids) == 2
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)
