"""The benchmark's workloads: inputs from a seed, solves, reference checks.

The seed draws the edge signs (and, for the null model, the shuffle
stream).  Each workload's topology is fixed, so every seed asks the engine
for the same subgraphs and timings of different seeds are comparable; the
signs still change every cycle count the checks compare.
"""

from __future__ import annotations

import json
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from cyclebalance import (datasets, engine, graph, montecarlo, nullmodel,
                          oracle, subgraphs)

from spans import Tracer

PIN_FILE = Path(__file__).resolve().parent / "pins" / "tribe_L16.json"


@dataclass
class Case:
    """One workload instance: its input graph and what its checks need."""

    seed: int
    graph: graph.SignedDigraph
    reference: object = None
    # (graph, max_length) of every census one solve runs
    census_inputs: list = field(default_factory=list)


def _counts(census) -> tuple[tuple[int, ...], tuple[int, ...]]:
    return tuple(census.positive), tuple(census.negative)


def _mismatch(label: str, got, want) -> list[str]:
    return [] if got == want else [f"{label}: got {got}, expected {want}"]


class Workload:
    name: str
    max_length: int
    pooled = False  # timed solves run a process pool of nproc workers

    def build(self, seed: int) -> graph.SignedDigraph:
        raise NotImplementedError

    def reference(self, g: graph.SignedDigraph, seed: int):
        """Reference results built during set-up, outside the timed solves."""
        return None

    def setup(self, seed: int) -> Case:
        g = self.build(seed)
        case = Case(seed, g, self.reference(g, seed))
        case.census_inputs = [(g, self.max_length)]
        return case

    def solve(self, case: Case, workers: int):
        return engine.cycle_census(case.graph, self.max_length)

    def finish(self, case: Case) -> None:
        """Reference work that needs a full run; done after the timed solves."""

    def check(self, case: Case, result) -> list[str]:
        return _mismatch("census", _counts(result), case.reference)

    def trace_targets(self) -> list[tuple[object, str, str]]:
        """(owner, attribute, span name) for each module boundary crossed."""
        return [(engine, "cycle_census", "engine.cycle_census")]

    def layer_counts(self, result) -> dict[str, int]:
        return {}


# -- tribe-null-L16 ------------------------------------------------------------

class TribeNull(Workload):
    """The 16-tribe census at L=16, then a sign-shuffle null on it."""

    name = "tribe-null-L16"
    max_length = 16
    shuffles = 2

    def build(self, seed):
        return datasets.load_gahuku_gama()

    def reference(self, g, seed):
        pins = json.loads(PIN_FILE.read_text())
        if pins["max_length"] != self.max_length:
            raise ValueError(f"{PIN_FILE.name} pins L={pins['max_length']}")
        return tuple(pins["positive"]), tuple(pins["negative"])

    def setup(self, seed):
        case = super().setup(seed)
        # every shuffle keeps the observed topology
        case.census_inputs *= 1 + self.shuffles
        return case

    def solve(self, case, workers):
        observed = engine.cycle_census(case.graph, self.max_length)
        null = nullmodel.shuffle_null(case.graph, self.max_length,
                                      self.shuffles, seed=case.seed)
        return observed, null

    def check(self, case, result):
        observed, null = result
        bad = _mismatch("observed census vs oracle pins", _counts(observed),
                        case.reference)
        bad += _mismatch("shuffle count", null.shuffles, self.shuffles)
        # a shuffle permutes signs only, so each keeps the observed totals
        totals = [self.shuffles * (p + n) for p, n in zip(*case.reference)]
        shuffled = [r.n_pos + r.n_neg for r in null.mean.rows]
        return bad + _mismatch("summed shuffle totals", shuffled, totals)

    def trace_targets(self):
        return super().trace_targets() + [
            (nullmodel, "shuffle_null", "nullmodel.shuffle_null"),
            (nullmodel, "cycle_census", "engine.cycle_census"),
        ]

    def layer_counts(self, result):
        return {"nullmodel.shuffles": result[1].shuffles}


# -- directed-L8 ---------------------------------------------------------------

def clustered_digraph(structure_seed: int, sign_seed: int, clusters: int = 10,
                      size: int = 20, p_arc: float = 0.10, p_neg: float = 0.3
                      ) -> graph.SignedDigraph:
    """Directed clusters with arc probability ``p_arc`` per ordered pair,
    joined in a ring by one-way positive arcs.

    ``structure_seed`` fixes which arcs exist; ``sign_seed`` makes each
    in-cluster arc negative with probability ``p_neg``.
    """
    rng = random.Random(structure_seed)
    arcs = []
    for c in range(clusters):
        base = c * size
        for i in range(size):
            for j in range(size):
                if i != j and rng.random() < p_arc:
                    rng.random()  # sign draw of the structure stream, unused
                    arcs.append((base + i, base + j))
    signs = random.Random(sign_seed)
    edges = {a: -1 if signs.random() < p_neg else 1 for a in arcs}
    for c in range(clusters):
        edges[(c * size, ((c + 1) % clusters) * size + 1)] = 1
    return graph.SignedDigraph(clusters * size, edges)


class DirectedL8(Workload):
    """One L=8 census of a sparse directed clustered graph."""

    name = "directed-L8"
    max_length = 8
    structure_seed = 8

    def build(self, seed):
        return clustered_digraph(self.structure_seed, seed)

    def reference(self, g, seed):
        return _counts(oracle.brute_force_census(g, self.max_length))


# -- complete16-L16 ------------------------------------------------------------

class CompleteCensus(Workload):
    """One census of the complete graph K_n at L=n."""

    def __init__(self, n: int = 16):
        self.n = n
        self.max_length = n
        self.name = f"complete{n}-L{n}"

    def build(self, seed):
        # odd seeds make every edge negative: a length-l cycle has sign (-1)^l
        return graph.complete_graph(self.n, sign=-1 if seed % 2 else 1)

    def reference(self, g, seed):
        totals = oracle.complete_graph_census(self.n)
        pos, neg = [0] * self.max_length, [0] * self.max_length
        for ell, count in totals.items():
            negative = seed % 2 == 1 and ell % 2 == 1
            (neg if negative else pos)[ell - 1] = count
        return tuple(pos), tuple(neg)


# -- montecarlo-clustered ------------------------------------------------------

def clustered_graph(structure_seed: int, sign_seed: int, clusters: int = 10,
                    size: int = 20, p_in: float = 0.20, p_neg: float = 0.3
                    ) -> graph.SignedDigraph:
    """Undirected clusters joined in a ring by positive ties.

    The structure stream draws ties as the Monte Carlo acceptance graph
    does; ``sign_seed`` makes each in-cluster tie negative with
    probability ``p_neg``.
    """
    rng = random.Random(structure_seed)
    ties = []
    for c in range(clusters):
        base = c * size
        for i in range(size):
            for j in range(i + 1, size):
                if rng.random() < p_in:
                    rng.random()  # sign draw of the structure stream, unused
                    ties.append((base + i, base + j))
    signs = random.Random(sign_seed)
    edges = {}
    for u, v in ties:
        edges[(u, v)] = edges[(v, u)] = -1 if signs.random() < p_neg else 1
    for c in range(clusters):
        u, v = c * size, ((c + 1) % clusters) * size + 1
        edges[(u, v)] = edges[(v, u)] = 1
    return graph.SignedDigraph(clusters * size, edges, from_undirected=True)


@dataclass
class MonteCarloReference:
    rows: tuple
    short_samples: int
    failures: list[str]


class MonteCarloClustered(Workload):
    """Monte Carlo estimate on the undirected clustered graph, pooled."""

    name = "montecarlo-clustered"
    max_length = 8
    pooled = True
    structure_seed = 42
    config = montecarlo.MonteCarloConfig(samples_per_batch=4, batches=4,
                                         sample_size=20, max_length=8,
                                         master_seed=13)

    def build(self, seed):
        return clustered_graph(self.structure_seed, seed)

    def setup(self, seed):
        # the sample graphs are known only after the single-worker run
        return Case(seed, self.build(seed))

    def solve(self, case, workers):
        return montecarlo.run_monte_carlo(case.graph, self.config,
                                          workers=workers)

    def finish(self, case):
        """Single-worker reference run; every sample census against the oracle."""
        seen = []
        tracer = Tracer()
        tracer.wrap(montecarlo, "cycle_census", "engine.cycle_census",
                    observe=lambda args, census: seen.append((args, census)))
        try:
            report = self.solve(case, workers=1)
        finally:
            tracer.restore()
        tracer.require_calls()
        failures = []
        for k, ((sub, length), census) in enumerate(seen):
            failures += _mismatch(
                f"sample {k} census vs oracle", _counts(census),
                _counts(oracle.brute_force_census(sub, length)))
        case.census_inputs = [args for args, _ in seen]
        case.reference = MonteCarloReference(report.rows, report.short_samples,
                                             failures)

    def check(self, case, result):
        ref = case.reference
        samples = self.config.samples_per_batch * self.config.batches
        return (ref.failures
                + _mismatch("rows vs one worker", result.rows, ref.rows)
                + _mismatch("short samples vs one worker",
                            result.short_samples, ref.short_samples)
                + _mismatch("samples", result.total_samples, samples))

    def trace_targets(self):
        return [
            (montecarlo, "run_monte_carlo", "montecarlo.run_monte_carlo"),
            (montecarlo, "sample_connected_vertex_set",
             "montecarlo.sample_connected_vertex_set"),
            (graph.SignedDigraph, "induced_subgraph", "graph.induced_subgraph"),
            (montecarlo, "cycle_census", "engine.cycle_census"),
        ]

    def layer_counts(self, result):
        return {"montecarlo.samples": result.total_samples,
                "montecarlo.short_samples": result.short_samples}


REGISTRY: dict[str, Workload] = {
    w.name: w for w in (TribeNull(), DirectedL8(), CompleteCensus(16),
                        MonteCarloClustered())
}


# -- input properties, from the benchmark's own code ---------------------------

def hosts_cycle(vertices, successors) -> bool:
    """True if the subgraph induced on ``vertices`` has a directed cycle
    (self-loops included): strip sinks until none is left or none exists."""
    left = 0
    for v in vertices:
        left |= 1 << v
    stripped = True
    while stripped:
        stripped = False
        for v in vertices:
            bit = 1 << v
            if left & bit and not successors[v] & left:
                left ^= bit
                stripped = True
    return left != 0


def bound_log2(g: graph.SignedDigraph, max_length: int) -> float:
    """log2 of min(L, n) * d_max^min(L, n), d_max the largest out-degree:
    the engine's bound on its path counts, which picks the numeric path."""
    h = min(max_length, g.vertex_count)
    d_max = max(Counter(u for u, _ in g.edges).values(), default=0)
    return math.log2(h) + h * math.log2(max(d_max, 1))


def _survey_one(g, max_length, cyclic: bool):
    successors = [0] * g.vertex_count
    for u, v in g.edges:
        successors[u] |= 1 << v
    sizes = Counter()
    hosting = 0

    def visit(sub):
        nonlocal hosting
        sizes[len(sub.vertices)] += 1
        if cyclic:
            hosting += hosts_cycle(sub.vertices, successors)

    subgraphs.enumerate_connected_induced_subgraphs(g, max_length, visit)
    return sizes, hosting


def survey(census_inputs, cyclic: bool) -> dict:
    """Subgraphs per size and path bound over one solve's censuses, plus the
    share of subgraphs that host a cycle when ``cyclic`` (the costly part).
    Inputs of equal topology are surveyed once."""
    sizes = Counter()
    hosting = 0
    bound = 0.0
    memo = {}
    for g, length in census_inputs:
        key = (g.vertex_count, frozenset(g.edges), length)
        if key not in memo:
            memo[key] = _survey_one(g, length, cyclic)
        one_sizes, one_hosting = memo[key]
        sizes.update(one_sizes)
        hosting += one_hosting
        bound = max(bound, bound_log2(g, length))
    visits = sum(sizes.values())
    props = {
        "censuses": len(census_inputs),
        "subgraphs_by_size": {str(h): sizes[h] for h in sorted(sizes)},
        "visits": visits,
        "bound_log2": bound,
    }
    if cyclic:
        props["cyclic_frac"] = hosting / visits
    return props
