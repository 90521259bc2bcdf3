"""``campaign``: the paper's own pipeline, measure then cluster.

Why: it is the only workload where ``repro.core`` does the work.  Its two
halves use the comparison engine in opposite ways -- per-comparison
resampling (stochastic bootstrap) versus one batched precompute plus cached
lookups (deterministic bootstrap) -- so a gain for one that costs the other
shows.

Each half is ``SimulatedExecutor.execute_batch`` -> ``measure_batch``
(N measurements of time and of energy) ->
``RelativePerformanceAnalyzer.analyze_many``.  An op is one analysis (one
metric of one half), so a repetition has four ops.
"""

from __future__ import annotations

import copy
from time import perf_counter

import numpy as np

from repro.core import (
    ComparisonEngine,
    coerce_measurements,
    final_assignment,
    relative_scores,
    three_way_bubble_sort,
)
from repro.devices import SimulatedExecutor, cpu_gpu_platform, edge_cluster_platform
from repro.experiments.base import default_analyzer
from repro.measurement.noise import default_system_noise
from repro.tasks import RegularizedLeastSquaresTask, TaskChain, table1_chain

from perfbench.common import Rep
from perfbench.tracer import Tracer

METRICS = ("time", "energy")
#: The workload's own end-to-end figures (median over repetitions) and units.
UNITS = {"analyze_stochastic_s": "s", "analyze_deterministic_s": "s"}


def setup(seed: int, tiny: bool = False) -> dict:
    rng = np.random.default_rng([seed, 1])
    n_tasks = 2 if tiny else 3
    params = {
        "loop_size": int(rng.integers(5, 21)),
        "det_sizes": [int(x) for x in rng.integers(40, 321, size=n_tasks)],
        "det_iterations": [int(x) for x in rng.integers(4, 13, size=n_tasks)],
        "seeds": [int(x) for x in rng.integers(0, 2**31, size=4)],
        "n_measurements": 10 if tiny else 30,
        "repetitions": 5 if tiny else 100,
    }
    seeds = params["seeds"]
    n, reps = params["n_measurements"], params["repetitions"]
    det_chain = TaskChain(
        [
            RegularizedLeastSquaresTask(size=size, iterations=iters, name=f"L{i + 1}")
            for i, (size, iters) in enumerate(zip(params["det_sizes"], params["det_iterations"]))
        ],
        name="campaign-det",
    )
    halves = {
        # Table-I shape: 2**3 RLS placements on cpu-gpu, paper-default analyzer.
        "stochastic": (
            SimulatedExecutor(cpu_gpu_platform(), noise=default_system_noise(1.0), seed=seeds[0]),
            table1_chain(loop_size=params["loop_size"]),
            default_analyzer(seed=seeds[1], repetitions=reps, n_measurements=n),
        ),
        # 4**k placements on edge-cluster under the deterministic comparator.
        "deterministic": (
            SimulatedExecutor(edge_cluster_platform(), noise=default_system_noise(1.0), seed=seeds[2]),
            det_chain,
            default_analyzer(seed=seeds[3], repetitions=reps, n_measurements=n, stochastic=False),
        ),
    }
    return {"params": params, "halves": halves}


def decomposed_analysis(analyzer, data, tr: Tracer):
    """``analyze`` as its public calls, on a copy of the analyzer (as ``analyze_many`` does)."""
    analyzer = copy.deepcopy(analyzer)
    with tr.span("campaign.core.engine_s"):
        engine = analyzer.engine_for(data)
    with tr.span("campaign.core.sort_s"):
        table = relative_scores(
            engine.labels, engine, repetitions=analyzer.repetitions,
            rng=analyzer.seed, shuffle=analyzer.shuffle,
        )
    with tr.span("campaign.core.cluster_s"):
        final = final_assignment(table)
        canonical = three_way_bubble_sort(engine.labels, engine)
    tr.count("campaign.core.comparator_calls", engine.comparator_calls)
    tr.count("campaign.core.lookups", engine.lookups)
    return table, final, canonical


def run(inputs: dict, tr: Tracer) -> Rep:
    rep = Rep()
    for half, (executor, chain, analyzer) in inputs["halves"].items():
        start = perf_counter()
        with tr.span("campaign.devices.execute_s"):
            space = executor.execute_batch(chain)
        with tr.span("campaign.measurement.sample_s"):
            sets = {
                metric: executor.measure_batch(
                    space, repetitions=inputs["params"]["n_measurements"], metric=metric
                )
                for metric in METRICS
            }
        if tr.enabled:
            analyses = {
                metric: decomposed_analysis(analyzer, coerce_measurements(data), tr)
                for metric, data in sets.items()
            }
        else:
            analyses = {
                metric: (a.score_table, a.final, a.canonical_sort)
                for metric, a in analyzer.analyze_many(sets).items()
            }
        seconds = perf_counter() - start
        rep.metrics[f"analyze_{half}_s"] = seconds
        for metric in METRICS:
            rep.ops.add(f"{half}/{metric}", seconds * 1e3 / len(METRICS), analyses[metric], half=half)
        rep.state[half] = sets
    return rep


def op_output(value):
    table, final, canonical = value
    return (
        sorted((rank, sorted(entries.items())) for rank, entries in table.as_dict().items()),
        sorted((cluster, sorted(entries.items())) for cluster, entries in final.as_dict().items()),
        canonical.sequence,
        canonical.ranks,
    )


def lazy_reference(analyzer, data):
    """The deterministic reference: a lazily evaluated engine, no precompute."""
    analyzer = copy.deepcopy(analyzer)
    engine = ComparisonEngine(data, analyzer.comparator, precompute=False)
    table = relative_scores(
        engine.labels, engine, repetitions=analyzer.repetitions,
        rng=analyzer.seed, shuffle=analyzer.shuffle,
    )
    return table, final_assignment(table)


def check(inputs: dict, rep: Rep) -> dict[int, str]:
    failures: dict[int, str] = {}
    for index, (record, value) in enumerate(zip(rep.ops.records, rep.ops.values)):
        if value is None:
            continue
        half = record["half"]
        table, final, _ = value
        metric = record["name"].split("/")[1]
        analyzer = inputs["halves"][half][2]
        data = coerce_measurements(rep.state[half][metric])
        if half == "deterministic":
            ref_table, ref_final = lazy_reference(analyzer, data)
            if not (ref_table == table and ref_final.as_dict() == final.as_dict()):
                failures[index] = "differs from the lazily evaluated reference"
            continue
        labels = set(data)
        for label in labels:
            total = sum(table[rank].get(label, 0.0) for rank in table)
            if abs(total - 1.0) > 1e-9:
                failures[index] = f"scores of {label} over ranks sum to {total}"
                break
        clustered = [entry for entries in final.as_dict().values() for entry in entries]
        if sorted(clustered) != sorted(labels):
            failures[index] = "final clusters do not partition the algorithms"
    return failures


def replay(inputs: dict, rep: Rep, tr: Tracer) -> dict[int, str]:
    """The traced run already decomposed every analysis; only counters remain."""
    calls = tr.counts.get("campaign.core.comparator_calls", 0)
    lookups = tr.counts.get("campaign.core.lookups", 0)
    tr.counts["campaign.core.cache_served_ratio"] = 1.0 - calls / lookups if lookups else 0.0
    return {}
