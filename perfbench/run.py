#!/usr/bin/env python3
"""The repository benchmark: seeded, budgeted crawls, local and over the wire.

Run from the repository root::

    python3 perfbench/run.py --workload crawl-local --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with every tracer off;
``--trace 1`` runs the same ops untraced, traced and untraced again and
reports the per-layer metrics of the traced pass (spans are written to
``perfbench/out/<workload>-seed<seed>.spans.jsonl``).  End-to-end times are
reported at a reference host speed: every op is followed by a fixed
calibration workload that divides the shared host's speed drift out (see
README.md).  Every op is checked
against the same op run on the local snapshot; the last line of stdout is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  Exit codes:
0 all ops correct, 1 an op failed a check, 2 the benchmark could not run.
See ``perfbench/README.md`` for the workloads and every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter, thread_time
from typing import Any, Dict, List, Optional

WORKLOADS = ("crawl-local", "crawl-remote", "batched-remote")
#: Ops per walker in a run's op list.  rel_error.* averages one full pass of
#: the list, and 250 ops per walker keep its seed-to-seed spread small.
OPS_PER_WALKER = 250
#: Set-ups per run; setup_s is their median.
SETUP_REPEATS = 5
#: A --trace 1 run uses at most this many ops of the list (bounds span memory).
TRACE_OPS = 150

END_TO_END_UNITS = {
    "op_ms.p50": "ms",
    "op_ms.p90": "ms",
    "uq_per_s": "1/s",
    "rel_error.srw": "ratio",
    "rel_error.cnrw": "ratio",
    "rel_error.gnrw": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER_UNITS = {
    "walks.choose.calls": "count/op",
    "walks.choose.us": "us",
    "walks.observe.us": "us",
    "walks.partition.calls": "count/op",
    "walks.partition.us": "us",
    "walks.driver.us": "us",
    "engine.scheduler.rounds": "count/op",
    "engine.scheduler.us": "us",
    "engine.scheduler.frontier": "nodes/round",
    "api.cache.us": "us",
    "api.cache.hit_rate": "ratio",
    "api.budget.us": "us",
    "api.adapter.us": "us",
    "api.billed_ratio": "ratio",
    "storage.fetch.calls": "count/op",
    "storage.fetch.us": "us",
    "remote.requests": "count/op",
    "remote.request_us.p50": "us",
    "remote.request_us.p90": "us",
    "remote.codec.us": "us",
    "remote.retries": "count",
    "remote.failures": "count",
    "server.node.us": "us",
    "server.nodes.us": "us",
    "server.nodes.records": "records/req",
    "server.walk.us": "us",
    "wire.us": "us",
    "wire.node.us": "us",
    "wire.nodes.us": "us",
    "wire.walk.us": "us",
    "estimation.us": "us",
    "trace.overhead": "ratio",
}


class Phase:
    """What one pass over the op list measured."""

    def __init__(self) -> None:
        self.op_ms: List[float] = []
        #: One calibration time per measured op, taken right after it.
        self.cal_ms: List[float] = []
        self.ensemble_ms: List[float] = []
        self.walk_ms: List[float] = []
        self.ran = 0
        self.op_seconds = 0.0
        self.unique = 0
        self.walk_unique = 0
        self.stack = {"hits": 0, "misses": 0, "unique": 0, "total": 0}
        #: op index -> relative error, for the first execution of each op.
        self.errors: Dict[int, float] = {}

    @property
    def count(self) -> int:
        return len(self.op_ms)


def percentile(values: List[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


#: Time of one :func:`calibration` call on the reference host speed, in ms.
#: Timings are reported at this speed (see "Host-speed normalisation" in
#: README.md); the constant only sets the scale.
CAL_REF_MS = 0.6


def calibration() -> float:
    """CPU time of a fixed pure-Python workload (dict, sort, json), in ms.

    It runs no code of the program under test, so a change to the program
    cannot move it: only the speed of the host does.  It is timed in thread
    CPU time, so the server child finishing a response on the shared CPU
    does not count.
    """
    started = thread_time()
    table = {}
    for key in range(3000):
        table[key] = (key * 7) % 1013
    ordered = sorted(table.values())
    sum(value for value in ordered if value & 1)
    json.loads(json.dumps(ordered[:500]))
    return (thread_time() - started) * 1000.0


def host_speed(cal_ms: List[float], index: int, half_window: int = 15) -> float:
    """Reference-speed factor at op ``index``: CAL_REF_MS over the median
    calibration time of the ops around it (a rolling window, so a change of
    host speed within a run is followed too)."""
    window = cal_ms[max(0, index - half_window): index + half_window + 1]
    return CAL_REF_MS / statistics.median(window)


class Benchmark:
    """One invocation: set up, run the phases, check, report."""

    def __init__(self, args: argparse.Namespace, root: Path) -> None:
        import crawlops
        from repro import obs

        self.args = args
        self.root = root
        self.ops_mod = crawlops
        self.obs = obs
        self.remote = args.workload != "crawl-local"
        self.batched = args.workload == "batched-remote"
        self.out = root / "perfbench" / "out"
        self.work = self.out / f"work-{args.workload}-{args.seed}-{os.getpid()}"
        self.attempted = 0
        self.failures: List[str] = []

    # ------------------------------------------------------------------
    def execute(self) -> int:
        from serverproc import ServerPool

        self.work.mkdir(parents=True, exist_ok=True)
        try:
            with ServerPool(self.root, self.work) as pool:
                metrics, details = self._execute(pool)
        finally:
            shutil.rmtree(self.work, ignore_errors=True)
        for error in pool.errors:
            self._fail(f"server child: {error}")
        return self._report(metrics, details)

    def _execute(self, pool):
        from repro.api.remote import HTTPGraphBackend
        from repro.estimation.ground_truth import ground_truth
        from repro.graphs import load_dataset
        from repro.storage import load_snapshot, save_snapshot

        crawlops = self.ops_mod
        args = self.args
        # Input generation (not set-up): the paper's Facebook graph and the
        # seeded op list.
        graph = load_dataset("facebook_like", seed=0)
        truth = ground_truth(graph, crawlops.AVERAGE_DEGREE)
        candidates = [node for node in graph.nodes() if graph.degree(node) > 0]
        ops = crawlops.make_ops(args.seed, OPS_PER_WALKER, self.batched, candidates)
        if args.trace:
            ops = ops[:TRACE_OPS]

        # Set-up, repeated: snapshot write + open (+ server boot until /info).
        setup_times: List[float] = []
        setup_cal_ms: List[float] = []
        child = client = None
        for repeat in range(SETUP_REPEATS):
            if child is not None:
                client.close()
                pool.stop(child)
            cal_before = statistics.median(calibration() for _ in range(9))
            started = perf_counter()
            snapshot = save_snapshot(graph, self.work / f"snapshot-{repeat}")
            local = load_snapshot(snapshot)
            if self.remote:
                child = pool.boot(snapshot)
                client = HTTPGraphBackend(child.url)
                client.info()
            setup_times.append(perf_counter() - started)
            cal_after = statistics.median(calibration() for _ in range(9))
            setup_cal_ms.append((cal_before + cal_after) / 2.0)
        target = client if self.remote else local

        started = perf_counter()
        reference_backend = load_snapshot(snapshot)
        references = [
            crawlops.reference(reference_backend, op, self.batched) for op in ops
        ]
        reference_s = perf_counter() - started

        details: Dict[str, Any] = {
            "raw.setup_s": setup_times,
            "setup_calibration_ms": setup_cal_ms,
            "reference_s": reference_s,
            "ops_in_list": len(ops),
        }
        if not args.trace:
            phase = self._phase(target, ops, references, truth, seconds=args.seconds,
                                min_ops=len(ops), max_ops=None)
            metrics = self._end_to_end(phase, setup_times, setup_cal_ms, ops)
            details.update(self._phase_details(phase))
        else:
            metrics, trace_details = self._traced(target, ops, references, truth, child)
            details.update(trace_details)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        details["client_peak_rss_mb"] = rss
        if child is not None:
            details["server_peak_rss_mb"] = child.vm_hwm_mb()
            rss += details["server_peak_rss_mb"]
            client.close()
        if not args.trace:
            metrics["peak_rss_mb"] = rss
        return metrics, details

    # ------------------------------------------------------------------
    def _run_op(self, target, op, expected, truth, phase: Phase, guard: bool) -> None:
        crawlops = self.ops_mod
        self.attempted += 1
        try:
            if guard and self.obs.metrics() is not None:
                raise AssertionError("repro.obs telemetry is on during an untraced phase")
            if self.batched:
                t0 = perf_counter()
                outcome = crawlops.ensemble(target, op)
                t1 = perf_counter()
                payload = crawlops.server_walk(target, op)
                t2 = perf_counter()
                summaries = {
                    "ensemble": crawlops.ensemble_summary(outcome),
                    "walk": crawlops.walk_summary(payload),
                }
            else:
                t0 = perf_counter()
                outcome = crawlops.crawl(target, op)
                t1 = t2 = perf_counter()
                summaries = {"crawl": crawlops.crawl_summary(outcome)}
            if guard and self.obs.metrics() is not None:
                raise AssertionError("repro.obs telemetry is on during an untraced phase")
        except Exception:  # noqa: BLE001 - the loop records the failure and goes on
            self._fail(f"op {op.index} ({op.walker}) raised:\n{traceback.format_exc()}")
            return
        for kind, summary in summaries.items():
            reason = crawlops.check(kind, summary, expected[kind])
            if reason is not None:
                self._fail(f"op {op.index} ({op.walker}): {reason}")
                return
        phase.op_ms.append((t2 - t0) * 1000.0)
        phase.cal_ms.append(calibration())
        phase.op_seconds += t2 - t0
        if self.batched:
            phase.ensemble_ms.append((t1 - t0) * 1000.0)
            phase.walk_ms.append((t2 - t1) * 1000.0)
            phase.walk_unique += payload["unique_queries"]
        _, estimate, session = outcome
        cache_stats = session.api.cache.stats
        phase.stack["hits"] += cache_stats.hits
        phase.stack["misses"] += cache_stats.misses
        phase.stack["unique"] += session.unique_queries
        phase.stack["total"] += session.total_queries
        phase.unique += session.unique_queries + (payload["unique_queries"] if self.batched else 0)
        phase.errors.setdefault(op.index, abs(estimate.value - truth) / truth)

    def _fail(self, reason: str) -> None:
        self.failures.append(reason)
        if len(self.failures) <= 5:
            print(f"FAILED {reason}", file=sys.stderr)

    def _phase(self, target, ops, references, truth, *, seconds, min_ops, max_ops,
               guard=True, recorder=None) -> Phase:
        """Closed loop over the op list, cycling until ``seconds`` have passed
        and at least ``min_ops`` ops ran (never more than ``max_ops``)."""
        phase = Phase()
        started = perf_counter()
        index = 0
        while max_ops is None or index < max_ops:
            if index >= min_ops and perf_counter() - started >= seconds:
                break
            op = ops[index % len(ops)]
            expected = references[index % len(ops)]
            if recorder is None:
                self._run_op(target, op, expected, truth, phase, guard)
            else:
                recorder.op = op.index
                with recorder.span("op"):
                    self._run_op(target, op, expected, truth, phase, guard)
            index += 1
        phase.ran = index
        return phase

    def _end_to_end(self, phase: Phase, setup_times, setup_cal_ms, ops) -> Dict[str, float]:
        crawlops = self.ops_mod
        metrics: Dict[str, float] = {}
        if phase.count > 1:
            op_ms = [ms * host_speed(phase.cal_ms, index)
                     for index, ms in enumerate(phase.op_ms)]
            metrics["op_ms.p50"] = percentile(op_ms, 50)
            metrics["op_ms.p90"] = percentile(op_ms, 90)
            metrics["uq_per_s"] = phase.unique / (sum(op_ms) / 1000.0)
        for walker in crawlops.WALKERS:
            errors = [phase.errors[op.index] for op in ops
                      if op.walker == walker and op.index in phase.errors]
            if errors:
                metrics[f"rel_error.{walker}"] = statistics.fmean(errors)
        metrics["setup_s"] = statistics.median(
            seconds * CAL_REF_MS / cal for seconds, cal in zip(setup_times, setup_cal_ms)
        )
        return metrics

    def _phase_details(self, phase: Phase) -> Dict[str, Any]:
        """Per-kind times and the raw (host-speed, unnormalised) figures."""
        details: Dict[str, Any] = {"ops_run": phase.count, "op_seconds": phase.op_seconds}
        if phase.count > 1:
            details["raw.op_ms.p50"] = percentile(phase.op_ms, 50)
            details["raw.op_ms.p90"] = percentile(phase.op_ms, 90)
            details["raw.uq_per_s"] = phase.unique / phase.op_seconds
            details["calibration_ms.median"] = statistics.median(phase.cal_ms)
        for name, values in (("ensemble_ms", phase.ensemble_ms), ("walk_ms", phase.walk_ms)):
            if len(values) > 1:
                values = [ms * host_speed(phase.cal_ms, index) for index, ms in enumerate(values)]
                details[f"{name}.p50"] = percentile(values, 50)
                details[f"{name}.p90"] = percentile(values, 90)
        return details

    # ------------------------------------------------------------------
    def _traced(self, target, ops, references, truth, child):
        """Untraced, traced and untraced passes over the same ops."""
        from layertrace import SpanRecorder, layer_metrics

        args = self.args
        before = self._phase(target, ops, references, truth, seconds=args.seconds / 3.0,
                             min_ops=min(3, len(ops)), max_ops=len(ops))
        count = before.ran
        recorder = SpanRecorder()
        server_before = self._server_stats(child)
        registry = self.obs.global_registry()
        registry.reset()
        self.obs.enable_telemetry()
        recorder.install()
        try:
            traced = self._phase(target, ops, references, truth, seconds=0.0,
                                 min_ops=count, max_ops=count, guard=False,
                                 recorder=recorder)
        finally:
            recorder.uninstall()
            self.obs.disable_telemetry()
        server_after = self._server_stats(child)
        after = self._phase(target, ops, references, truth, seconds=0.0,
                            min_ops=count, max_ops=count)
        counters = {
            "retries": self._counter_total(registry, "repro_http_retries_total"),
            "failures": self._counter_total(registry, "repro_http_failures_total"),
        }
        metrics, gap = layer_metrics(
            recorder, traced.count, traced.stack,
            self._stats_delta(server_before, server_after), traced.walk_unique, counters,
        )
        untraced = before.op_ms + after.op_ms
        if untraced and traced.op_ms:
            baseline = statistics.median(untraced)
            metrics["trace.overhead"] = (statistics.median(traced.op_ms) - baseline) / baseline
        else:
            metrics["trace.overhead"] = 0.0
        self.out.mkdir(parents=True, exist_ok=True)
        spans_path = self.out / f"{args.workload}-seed{args.seed}.spans.jsonl"
        recorder.write_jsonl(spans_path)
        details = {
            "traced_ops": traced.count,
            "spans": len(recorder.starts),
            "spans_jsonl": str(spans_path.relative_to(self.root)),
            "gap": gap,
        }
        return metrics, details

    @staticmethod
    def _counter_total(registry, name: str) -> float:
        counters = registry.snapshot()["counters"].get(name, {})
        return float(sum(counters.values())) if isinstance(counters, dict) else float(counters)

    @staticmethod
    def _server_stats(child) -> Optional[Dict[str, Any]]:
        """``GET /stats`` on a connection of its own (outside the timed loop)."""
        if child is None:
            return None
        import urllib.request

        with urllib.request.urlopen(child.url + "/stats", timeout=30) as response:
            return json.loads(response.read().decode("utf-8"))

    @staticmethod
    def _stats_delta(before, after) -> Optional[Dict[str, Any]]:
        if before is None or after is None:
            return None
        delta: Dict[str, Any] = {"nodes_served": after["nodes_served"] - before["nodes_served"]}
        old, new = before["latency"]["endpoints"], after["latency"]["endpoints"]
        for endpoint in ("/node", "/nodes", "/walk"):
            zero = {"count": 0, "sum": 0.0}
            delta[endpoint] = {
                key: new.get(endpoint, zero)[key] - old.get(endpoint, zero)[key]
                for key in ("count", "sum")
            }
        return delta

    # ------------------------------------------------------------------
    def _report(self, metrics: Dict[str, float], details: Dict[str, Any]) -> int:
        from benchmarks.conftest import _host_metadata

        args = self.args
        units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
        missing = [name for name in units if name not in metrics]
        if missing and not self.failures:
            self._fail(f"no value for {', '.join(missing)}")
        metadata = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "budget": self.ops_mod.BUDGET,
            "ops_per_walker": OPS_PER_WALKER,
            "attempted": self.attempted,
            "failed": len(self.failures),
            "host": _host_metadata(),
            "commit": git_commit(self.root),
        }
        result = {
            "correct": not self.failures,
            "attempted": self.attempted,
            "failed": len(self.failures),
            "metrics": {
                name: {"value": metrics[name], "unit": unit}
                for name, unit in units.items() if name in metrics
            },
        }
        self.out.mkdir(parents=True, exist_ok=True)
        report_path = self.out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        report_path.write_text(json.dumps(
            {"metadata": metadata, "result": result, "details": details,
             "failures": self.failures[:20]}, indent=2) + "\n")
        print("meta " + json.dumps(metadata, sort_keys=True))
        for name, entry in result["metrics"].items():
            print(f"{name:28s} {entry['value']:.6g} {entry['unit']}")
        if "raw.op_ms.p50" in details:
            print(f"at this host's speed (calibration {details['calibration_ms.median']:.4g} ms, "
                  f"reference {CAL_REF_MS} ms): op_ms.p50 {details['raw.op_ms.p50']:.6g}, "
                  f"op_ms.p90 {details['raw.op_ms.p90']:.6g}, "
                  f"uq_per_s {details['raw.uq_per_s']:.6g}")
        gap = details.get("gap")
        if gap:
            parts = ", ".join(f"{name} {value:.1f}" for name, value in
                              gap["per_unique_query_us"].items())
            print(f"gap per unique query: client observes {gap['client_observed_us']:.1f} us "
                  f"= {parts} us; owner: {gap['owner']}")
        print(f"failed_frac {len(self.failures) / max(self.attempted, 1):.6g} "
              f"({len(self.failures)} of {self.attempted} ops); report: "
              f"{report_path.relative_to(self.root)}")
        print(json.dumps(result))
        return 0 if not self.failures else 1


def git_commit(root: Path) -> Optional[str]:
    """HEAD's commit of the checkout, or ``None`` outside a git checkout."""
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def parse_args(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: src/repro not found; run from the repository root",
              file=sys.stderr)
        return 2
    for path in (str(root / "perfbench"), str(root / "src"), str(root)):
        if path not in sys.path:
            sys.path.insert(0, path)
    # One CPU for the benchmark and (inherited) its server child: the
    # calibration then times the CPU that runs every instruction of an op,
    # and no request waits for an idle CPU to wake up.
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_setaffinity") else None
    if cpus:
        os.sched_setaffinity(0, {max(cpus)})
    # SIGTERM unwinds like an exception, so every server child is stopped.
    previous = signal.signal(signal.SIGTERM, _terminate)
    try:
        return Benchmark(args, root).execute()
    except Exception:  # noqa: BLE001 - set-up failure: no result line
        traceback.print_exc()
        return 2
    finally:
        signal.signal(signal.SIGTERM, previous)
        if cpus:
            os.sched_setaffinity(0, cpus)


if __name__ == "__main__":
    sys.exit(main())
