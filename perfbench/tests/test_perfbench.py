"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent.parent / "src"))
sys.path.insert(0, str(HERE.parent))

from cyclebalance import montecarlo, oracle, subgraphs  # noqa: E402

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

GENERATED = ["directed-L8", "complete16-L16", "montecarlo-clustered"]


@pytest.mark.parametrize("name", GENERATED)
def test_inputs_repeat_per_seed_and_differ_across_seeds(name):
    w = workloads.REGISTRY[name]
    assert w.build(3).edges == w.build(3).edges
    assert w.build(3).edges != w.build(4).edges


@pytest.mark.parametrize("name", ["directed-L8", "montecarlo-clustered"])
def test_seed_changes_signs_only(name):
    w = workloads.REGISTRY[name]
    assert set(w.build(3).edges) == set(w.build(4).edges)


def test_montecarlo_topology_is_the_acceptance_graph():
    g = workloads.clustered_graph(42, 0)
    # criterion 8 draws the same ties; its ring joins c*20 to (c+1)*20+1
    assert g.vertex_count == 200 and g.from_undirected
    assert all((c * 20, (c + 1) % 10 * 20 + 1) in g.edges for c in range(10))


def test_hosts_cycle_matches_oracle():
    g = workloads.clustered_digraph(8, 1, clusters=1, size=9, p_arc=0.25)
    succ = [0] * g.vertex_count
    for u, v in g.edges:
        succ[u] |= 1 << v
    for visit in subgraphs.connected_induced_subgraphs(g, 6):
        sub, _ = g.induced_subgraph(visit.vertices)
        has = oracle.enumerate_simple_cycles(sub, len(visit.vertices)) > 0
        assert workloads.hosts_cycle(visit.vertices, succ) == has


class _OffByOne(workloads.CompleteCensus):
    def reference(self, g, seed):
        pos, neg = super().reference(g, seed)
        return (pos[:2] + (pos[2] + 1,) + pos[3:]), neg


@pytest.fixture
def bench(monkeypatch, capsys, tmp_path):
    """Run the benchmark in-process on one workload; return (exit code,
    info line, result line)."""
    monkeypatch.setattr(run, "setup_probes", lambda w, seed: [0.5])
    monkeypatch.setattr(run, "SPAN_DIR", tmp_path)
    return lambda w, trace=0: _run(capsys, w, trace)


def _run(capsys, w, trace):
    code = run.main(["--workload", w.name, "--seed", "2", "--seconds", "0.1",
                     "--trace", str(trace)], registry={w.name: w})
    lines = capsys.readouterr().out.splitlines()
    return code, json.loads(lines[-2]), json.loads(lines[-1])


def _units(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


def _spec_units(kind):
    spec = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def test_correct_small_workload_passes(bench):
    code, info, result = bench(workloads.CompleteCensus(6))
    assert code == 0 and result["correct"] and info["error_rate"] == 0
    assert _units(result) == _spec_units("end_to_end")
    assert info["input"]["visits"] == 2 ** 6 - 1
    assert info["subgraphs_per_s"] > 0 and info["censuses_per_s"] > 0


def test_reference_off_by_one_fails(bench):
    code, info, result = bench(_OffByOne(6))
    assert code != 0 and not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert info["error_rate"] == 1


def test_traced_run_reports_every_layer(bench):
    code, info, result = bench(workloads.CompleteCensus(6), trace=1)
    assert code == 0
    assert _units(result) == _spec_units("per_layer")
    assert result["metrics"]["subgraphs.visits"]["value"] == 2 ** 6 - 1
    assert result["metrics"]["engine.census_calls"]["value"] == 1


def test_missing_target_fails_loudly(monkeypatch):
    monkeypatch.delattr(montecarlo, "sample_connected_vertex_set")
    tracer = spans.Tracer()
    with pytest.raises(spans.TraceTargetMissing, match="no longer exists"):
        for owner, attr, name in workloads.REGISTRY[
                "montecarlo-clustered"].trace_targets():
            tracer.wrap(owner, attr, name)
    tracer.restore()
    assert not hasattr(montecarlo.run_monte_carlo, "__wrapped__")


def test_target_never_called_fails_loudly():
    tracer = spans.Tracer()
    tracer.wrap(montecarlo, "cycle_census", "engine.cycle_census")
    tracer.restore()
    with pytest.raises(spans.TraceTargetMissing, match="never called"):
        tracer.require_calls()


def test_every_trace_target_exists_today():
    for w in workloads.REGISTRY.values():
        tracer = spans.Tracer()
        try:
            for owner, attr, name in w.trace_targets():
                tracer.wrap(owner, attr, name)
        finally:
            tracer.restore()
