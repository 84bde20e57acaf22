"""Self-tests of the benchmark: a smoke run and a verifier that can fail.

    python3 -m pytest perfbench

The smoke test runs run.py end to end on a ladder of a few seconds.  The
negative tests corrupt one coefficient of a reference dual class, one
witness and one check result, and require the verifier to flag each.  The
sampler test checks that probes fire while a repetition runs.
"""

import copy
import json
import os
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import repetition  # noqa: E402
import sampler  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402


def _reference():
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh)


def _bench(trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "smoke",
         "--seed", "5", "--seconds", "0.5", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_prints_every_declared_metric(trace, kind):
    result = _bench(trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == _declared(kind)


@pytest.fixture(scope="module")
def smoke_outputs():
    """The stdout of every smoke call, run in this process."""
    calls = workloads.calls(workloads.SMOKE, 0)
    results, _ = repetition.run_calls(calls)
    assert all(rc == 0 for rc, _ in results)
    return [text for _, text in results]


def _failures(outputs, reference):
    return sum(1 for text in outputs
               for *_, bad in verify.outputs_of(workloads.SMOKE, text, reference, 0)
               if bad)


def test_smoke_outputs_verify(smoke_outputs):
    assert _failures(smoke_outputs, _reference()) == 0


def test_corrupted_dual_class_is_caught(smoke_outputs):
    reference = copy.deepcopy(_reference())
    doc = json.loads(smoke_outputs[0])
    entry = reference["instances"][workloads.instance_key(doc["family"], doc["parameters"])]
    monomial, coeff = entry["fundamental_class"][0]
    entry["fundamental_class"][0] = [monomial, str(int(coeff) + 1)]
    assert _failures(smoke_outputs, reference) == 1


def test_witness_outside_the_ideal_is_caught(smoke_outputs):
    doc = next(d for d in map(json.loads, smoke_outputs) if d["nonvanishing"]["verdict"])
    doc["nonvanishing"]["witness"] = [["1", "1"]]
    assert verify.verify_family(doc, _reference()) == ["witness is not in the kernel ideal"]


def test_failed_or_missing_check_is_counted():
    reference = _reference()
    results = [{"name": n, "passed": True, "detail": ""} for n in reference["checks"]]
    results[0]["passed"] = False
    doc = {"seed": 3, "suites": list(workloads.SUITES), "results": results[:-1]}
    bad = [name for name, reasons in verify.check_outputs(doc, reference, 3) if reasons]
    assert bad == sorted([reference["checks"][0], reference["checks"][-1]])


def test_sampler_probes_while_busy():
    with sampler.Sampler() as speed:
        t0 = time.monotonic()
        while time.monotonic() - t0 < 0.2:
            sum(i * i for i in range(1000))
    # about one probe per PERIOD_S, each a small share of the period
    assert len(speed.samples) >= 0.1 / sampler.PERIOD_S
    assert 0 < speed.spent < 0.1
    assert speed.speed > 0
    assert sampler.burst_speed() > 0
