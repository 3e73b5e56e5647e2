"""Smoke test of the benchmark itself: tiny op lists, every metric, the gate.

Runs in seconds from the repository root::

    python -m pytest perfbench/test_smoke.py -q
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
for entry in (ROOT, ROOT / "src", ROOT / "perfbench"):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

import crawlops  # noqa: E402
import run  # noqa: E402



def _run(monkeypatch, capsys, workload, trace=0):
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(run, "OPS_PER_WALKER", 1)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.2",
                     "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1])


def _declared(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {entry["name"]: entry["unit"] for entry in spec[kind]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(monkeypatch, capsys, workload, trace):
    code, result = _run(monkeypatch, capsys, workload, trace)
    assert code == 0
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 3
    emitted = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert emitted == _declared("per_layer" if trace else "end_to_end")
    assert all(isinstance(entry["value"], float) for entry in result["metrics"].values())


@pytest.mark.parametrize("workload, kind", [("crawl-remote", "crawl"),
                                            ("batched-remote", "walk")])
def test_corrupted_reference_fingerprint_fails_the_op(monkeypatch, capsys, workload, kind):
    original = crawlops.reference

    def corrupted(backend, op, batched):
        expected = original(backend, op, batched)
        if op.index == 0:
            fingerprint, *rest = expected[kind]
            expected[kind] = (fingerprint ^ 1, *rest)
        return expected

    monkeypatch.setattr(crawlops, "reference", corrupted)
    code, result = _run(monkeypatch, capsys, workload)
    assert code == 1
    assert result["correct"] is False
    assert 1 <= result["failed"] < result["attempted"]
