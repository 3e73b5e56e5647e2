"""The benchmark's operations: seeded op lists, their local references, and checks.

An *op* is one unit of closed-loop client work.  On ``crawl-local`` and
``crawl-remote`` it is one budgeted crawl plus its average-degree estimate; on
``batched-remote`` it is one 16-walker scalar ensemble crawl followed by one
server-side ``POST /walk``.  Every op's output is reduced to a comparable
summary (path fingerprints, billed unique queries, the estimate) and checked
against the same op run on the local snapshot before any timing is trusted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import SamplingSession
from repro.api.remote import walk_fingerprint
from repro.estimation.aggregates import AggregateQuery

#: Walkers run in round-robin by every workload (the paper's Figure 7 set).
WALKERS = ("srw", "cnrw", "gnrw")
#: Unique-query budget of every crawl, ensemble and server-side walk.
BUDGET = 100
#: Walkers per ensemble op on ``batched-remote``.
ENSEMBLE_WALKERS = 16

AVERAGE_DEGREE = AggregateQuery.average_degree()


@dataclass(frozen=True)
class Op:
    """One seeded op: walker, walker seed, start node(s)."""

    index: int
    walker: str
    seed: int
    start: Any
    starts: Tuple[Any, ...] = ()


def make_ops(seed: int, per_walker: int, batched: bool, candidates: Sequence[Any]) -> List[Op]:
    """The op list of a run, derived from the workload seed alone.

    ``crawl-local`` and ``crawl-remote`` draw the same list for the same seed
    (the workload name is not mixed in), so their estimates are comparable
    bit for bit.  ``candidates`` are the start nodes allowed (degree >= 1).
    """
    rng = np.random.default_rng(seed)

    def pick():
        return candidates[int(rng.integers(len(candidates)))]

    ops = []
    for index in range(per_walker * len(WALKERS)):
        walker = WALKERS[index % len(WALKERS)]
        walker_seed = int(rng.integers(2**31 - 1))
        start = pick()
        starts = tuple(pick() for _ in range(ENSEMBLE_WALKERS)) if batched else ()
        ops.append(Op(index, walker, walker_seed, start, starts))
    return ops


# ----------------------------------------------------------------------
# The client work itself (what the timed phase measures)
# ----------------------------------------------------------------------
def crawl(backend, op: Op):
    """One budgeted crawl and its estimate, the way users drive a session."""
    session = SamplingSession(backend).budget(BUDGET).walker(op.walker, seed=op.seed)
    result = session.run(start=op.start)
    return result, session.estimate(AVERAGE_DEGREE), session


def ensemble(backend, op: Op):
    """One budget-driven scalar ensemble (engine.scheduler, POST /nodes)."""
    session = SamplingSession(backend).budget(BUDGET).walker(op.walker, seed=op.seed)
    results = session.run_ensemble(ENSEMBLE_WALKERS, starts=list(op.starts), mode="scalar")
    return results, session.estimate(AVERAGE_DEGREE), session


def server_walk(backend, op: Op) -> Dict[str, Any]:
    """One server-side walk (POST /walk) with the crawl budget."""
    return backend.remote_walk(op.walker, op.start, seed=op.seed, budget=BUDGET)


def local_walk(backend, op: Op):
    """The local twin of :func:`server_walk` (the server runs exactly this)."""
    session = SamplingSession(backend).budget(BUDGET).walker(op.walker, seed=op.seed)
    return session.run(start=op.start)


# ----------------------------------------------------------------------
# Comparable summaries
# ----------------------------------------------------------------------
def crawl_summary(outcome) -> Tuple:
    result, estimate, session = outcome
    return (walk_fingerprint(result.path), session.unique_queries, estimate.value)


def ensemble_summary(outcome) -> Tuple:
    results, estimate, session = outcome
    return (
        tuple(walk_fingerprint(r.path) for r in results),
        session.unique_queries,
        estimate.value,
    )


def walk_summary(payload: Dict[str, Any]) -> Tuple:
    return (walk_fingerprint(payload["path"]), payload["unique_queries"])


def local_walk_summary(result) -> Tuple:
    return (walk_fingerprint(result.path), result.unique_queries)


def reference(backend, op: Op, batched: bool) -> Dict[str, Tuple]:
    """The op's expected summaries, computed on the local snapshot."""
    if batched:
        return {
            "ensemble": ensemble_summary(ensemble(backend, op)),
            "walk": local_walk_summary(local_walk(backend, op)),
        }
    return {"crawl": crawl_summary(crawl(backend, op))}


def check(kind: str, summary: Tuple, expected: Tuple) -> Optional[str]:
    """``None`` when the op is correct, else a one-line reason."""
    if summary[1] != BUDGET:
        return f"{kind} billed {summary[1]} unique queries, budget is {BUDGET}"
    if summary != expected:
        return f"{kind} output differs from the local reference: {summary!r} != {expected!r}"
    return None
