"""tools/bench_record.py: one saved perfbench/run.py output becomes one BENCH record line."""
import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_record", Path(__file__).resolve().parents[1] / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)

ENV = {"python": "3.11.7", "numpy": "2.4.6", "chirplab": "0.1.0", "cores": 2}
CONTRACT = {"correct": False, "attempted": 46, "failed": 1,
            "metrics": {"setup_s": {"value": 0.147, "unit": "s"}, "op_rel.p50": {"value": 12.6, "unit": "kernels"}}}
RUN_OUTPUT = "\n".join([
    "perfbench ber-grid seed=1001 seconds=38.0 trace=0 rounds=2",
    "env " + json.dumps(ENV),
    "setup_s 0.147 s (n=3)",
    "op_rel.p50 12.6 kernels (n=46)",
    "kernel_s 0.0275606 s (n=46)",
    "ber_trials_per_s.sf7 167000 trials/s (n=20)",
    "fail_ratio 0.0217391 (n=46: 1 failed checks, 0 frames missed below the assured SNR)",
    "FAILED CHECK: peak.sf7 round 1: mean peak 90.1 outside [95.0, 105.0]",
    json.dumps(CONTRACT),
]) + "\n"


@pytest.fixture(scope="module")
def parsed():
    return bench_record.parse_run("change", RUN_OUTPUT)


def test_label_and_header(parsed):
    assert parsed["label"] == "change"
    assert parsed["workload"] == "ber-grid"
    assert (parsed["seed"], parsed["seconds"], parsed["trace"], parsed["rounds"]) == (1001, 38.0, 0, 2)


def test_env_and_contract(parsed):
    assert parsed["env"] == ENV
    assert parsed["contract"] == CONTRACT


def test_raw_values_and_units(parsed):
    # end-to-end lines are in the contract already, and a FAILED CHECK note is no value
    assert parsed["raw"] == {
        "kernel_s": {"value": 0.0275606, "unit": "s"},
        "ber_trials_per_s.sf7": {"value": 167000.0, "unit": "trials/s"},
        "fail_ratio": {"value": 0.0217391, "unit": ""},
    }


@pytest.mark.parametrize("label, printed, commit", [
    ("parent@8259ab9", "27d6237", "27d6237"),  # a commit the run knew wins over the label
    ("parent@8259ab9", "unknown", "8259ab9"),
    ("change", "unknown", None),
])
def test_commit_from_env_else_label(label, printed, commit):
    run = bench_record.parse_run(label, RUN_OUTPUT.replace(json.dumps(ENV), json.dumps({**ENV, "commit": printed})))
    assert run["commit"] == commit
    assert run["env"]["commit"] == printed
