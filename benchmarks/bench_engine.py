"""Benchmark: batched WalkScheduler versus per-walker sequential execution.

The walk-engine refactor split samplers into transition kernels plus drivers
precisely so a batch driver could amortise per-query overhead across an
ensemble.  This benchmark pins the claim: a 16-walker CNRW ensemble on a
>= 100k-node CSR-backed graph must run at least 1.2x faster through the
:class:`~repro.engine.scheduler.WalkScheduler` (one deduplicated
``query_many`` frontier batch per round, view-fed stepping) than as 16
sequential :meth:`~repro.walks.base.RandomWalk.run` calls over an identical
stack — while producing *bit-identical walks*, which the test also asserts.

Set ``REPRO_BENCH_SCALE`` < 1 (e.g. 0.25) for a quick smoke run.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np
import pytest

from repro.api import CSRBackend, build_api
from repro.engine import WalkScheduler
from repro.rng import derive_seed
from repro.walks import make_walker

from conftest import bench_scale, record_bench_result

#: Graph size: 100k nodes at the default scale (the acceptance target).
NUM_NODES = max(10_000, int(100_000 * bench_scale()))
OUT_DEGREE = 8
WALKERS = 16
STEPS = 400
WALKER_NAME = "cnrw"
SEED = 0
#: Required speedup of the scheduler over sequential per-walker execution.
#: The acceptance bar applies at the 100k-node target scale; a reduced-scale
#: smoke run (REPRO_BENCH_SCALE < 1) asserts parity only — smaller graphs
#: revisit more, cache hits cost the sequential driver almost nothing, and a
#: wall-clock race near 1.0x would be CI noise, not signal.
REQUIRED_SPEEDUP = 1.2 if NUM_NODES >= 100_000 else None
#: Interleaved timing repetitions per contender (medians are compared, so a
#: transient CPU-contention burst cannot flip the verdict either way).
TIMING_REPEATS = 7


def _synthetic_edges(num_nodes: int, out_degree: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    sources = np.repeat(np.arange(num_nodes, dtype=np.int64), out_degree)
    targets = rng.integers(0, num_nodes, size=sources.size, dtype=np.int64)
    return np.stack([sources, targets], axis=1)


@pytest.fixture(scope="module")
def csr_backend() -> CSRBackend:
    edges = _synthetic_edges(NUM_NODES, OUT_DEGREE)
    return CSRBackend.from_edges(edges, num_nodes=NUM_NODES, name="synthetic-csr")


@pytest.fixture(scope="module")
def starts(csr_backend):
    """Distinct non-isolated start nodes, one per walker."""
    rng = np.random.default_rng(SEED)
    chosen = []
    seen = set()
    while len(chosen) < WALKERS:
        node = int(rng.integers(0, len(csr_backend)))
        if node in seen:
            continue
        seen.add(node)
        if csr_backend.metadata(node)["degree"] > 0:
            chosen.append(node)
    return chosen


def _walker_seeds():
    return [derive_seed(SEED, index) for index in range(WALKERS)]


def _sequential_ensemble(backend, start_nodes):
    """Baseline: N independent RandomWalk.run calls over one shared stack."""
    api = build_api(backend)
    results = [
        make_walker(WALKER_NAME, api=api, seed=seed).run(start, max_steps=STEPS)
        for seed, start in zip(_walker_seeds(), start_nodes)
    ]
    return results


def _scheduled_ensemble(backend, start_nodes):
    """Contender: the same walkers advanced in lockstep by the scheduler."""
    api = build_api(backend)
    walkers = [
        make_walker(WALKER_NAME, api=api, seed=seed) for seed in _walker_seeds()
    ]
    return WalkScheduler(api).run(walkers, start_nodes, steps=STEPS)


def test_bench_sequential_ensemble(benchmark, csr_backend, starts):
    results = benchmark(_sequential_ensemble, csr_backend, starts)
    assert all(result.steps == STEPS for result in results)


def test_bench_scheduled_ensemble(benchmark, csr_backend, starts):
    results = benchmark(_scheduled_ensemble, csr_backend, starts)
    assert all(result.steps == STEPS for result in results)


def test_scheduler_beats_sequential_execution(csr_backend, starts):
    """Acceptance check: batched lockstep execution wins by >= 1.2x at scale.

    Both contenders run the same 16 CNRW walkers (same derived seeds, same
    starts) for the same number of steps over identical fresh stacks; the
    walks must come out bit-identical, and the scheduler's median wall-clock
    time over interleaved repetitions must beat the sequential baseline by
    the required factor.
    """
    assert NUM_NODES >= 10_000

    def timed(function):
        # Collector pauses land on whichever contender is running; park the
        # GC outside the timed section so the comparison stays fair.
        gc.collect()
        gc.disable()
        try:
            started = time.perf_counter()
            result = function(csr_backend, starts)
            return time.perf_counter() - started, result
        finally:
            gc.enable()

    sequential_times, scheduled_times = [], []
    sequential_results = scheduled_results = None
    for _ in range(TIMING_REPEATS):
        seconds, sequential_results = timed(_sequential_ensemble)
        sequential_times.append(seconds)
        seconds, scheduled_results = timed(_scheduled_ensemble)
        scheduled_times.append(seconds)

    # Golden parity: the scheduler replays the sequential walks exactly.
    assert [r.path for r in scheduled_results] == [r.path for r in sequential_results]

    sequential_seconds = statistics.median(sequential_times)
    scheduled_seconds = statistics.median(scheduled_times)
    speedup = sequential_seconds / scheduled_seconds
    print(
        f"\n{WALKERS}x {WALKER_NAME} x {STEPS} steps on {NUM_NODES} nodes: "
        f"sequential {sequential_seconds * 1e3:.1f} ms, scheduled "
        f"{scheduled_seconds * 1e3:.1f} ms ({speedup:.2f}x)"
    )
    record_bench_result(
        "engine.scheduler_vs_sequential",
        nodes=NUM_NODES,
        walkers=WALKERS,
        steps=STEPS,
        sequential_seconds=sequential_seconds,
        scheduled_seconds=scheduled_seconds,
        speedup=speedup,
        required_speedup=REQUIRED_SPEEDUP,
        # Every repeat and its quartiles, so the spread behind the median
        # ratio is visible next to the floor it is judged against.
        sequential_repeats_seconds=sequential_times,
        scheduled_repeats_seconds=scheduled_times,
        sequential_quartiles_seconds=statistics.quantiles(sequential_times, n=4),
        scheduled_quartiles_seconds=statistics.quantiles(scheduled_times, n=4),
    )
    if REQUIRED_SPEEDUP is not None:
        assert speedup >= REQUIRED_SPEEDUP, (
            f"expected the batched scheduler to be >= {REQUIRED_SPEEDUP}x faster than "
            f"sequential per-walker execution (sequential {sequential_seconds:.3f}s "
            f"vs scheduled {scheduled_seconds:.3f}s = {speedup:.2f}x)"
        )
