"""tools/bench_record.py: one saved perfbench/run.py output becomes one BENCH record line, and a record's pairs a summary."""
import importlib.util
import json
from pathlib import Path

import numpy as np
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


def contract_run(label, workload, seed, metrics, failed=0, attempted=10):
    return {"label": label, "workload": workload, "seed": seed, "seconds": 38.0, "trace": 0,
            "contract": {"failed": failed, "attempted": attempted,
                         "metrics": {name: {"value": value, "unit": ""} for name, value in metrics.items()}}}


LOWER = {"name": "op_rel.p50", "better": "lower", "bound": 0.2}
HIGHER = {"name": "rate", "better": "higher", "bound": 0.1}


def alternating(parent_values, change_values, name="op_rel.p50", workload="frame-sync"):
    runs = []
    for seed, (p, c) in enumerate(zip(parent_values, change_values), 100):
        pair = [contract_run("parent@abc1234", workload, seed, {name: p}), contract_run("change", workload, seed, {name: c})]
        runs += pair if seed % 2 else pair[::-1]
    return runs


def summary(runs, metrics=(LOWER,)):
    lines = bench_record.summarize_pairs(runs, list(metrics))
    return {line.split(":")[0]: line for line in lines}


@pytest.mark.parametrize("values", [[3.0], [1.0, 2.0], [4.0, 1.0, 3.0, 2.0], list(range(11))])
def test_quartiles_are_numpy_percentiles(values):
    assert bench_record.quartiles([float(v) for v in values]) == pytest.approx(
        tuple(np.percentile(values, [25, 50, 75])))


def test_pairs_match_by_seed_and_skip_other_labels():
    runs = alternating([1.0, 1.0], [0.5, 0.5])
    runs += [contract_run("parent-short@abc1234", "frame-sync", 100, {"op_rel.p50": 9.0}),
             contract_run("draft", "frame-sync", 101, {"op_rel.p50": 9.0}),
             contract_run("change", "frame-sync", 999, {"op_rel.p50": 9.0})]  # no parent of its seed
    pairs = bench_record.pairs_by_workload(runs)["frame-sync"]
    assert [(p["seed"], c["seed"]) for p, c in pairs] == [(100, 100), (101, 101)]
    assert all(p["label"].startswith("parent@") and c["label"] == "change" for p, c in pairs)


def test_claim_holds_on_nine_of_ten_with_a_gap_past_the_parent_iqr():
    parent = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]
    change = [0.90] * 9 + [1.09]  # the tenth pair is a tie, which the change does not win
    line = summary(alternating(parent, change))["frame-sync op_rel.p50"]
    assert "change won 9/10 pairs" in line and "claim rule holds" in line and "bound 0.2 holds" in line


def test_claim_fails_on_eight_of_ten():
    parent = [1.0 + 0.01 * k for k in range(10)]
    change = [0.5] * 8 + [2.0, 2.0]
    line = summary(alternating(parent, change))["frame-sync op_rel.p50"]
    assert "change won 8/10 pairs" in line and "claim rule fails" in line


def test_claim_fails_when_the_gap_is_inside_the_parent_iqr():
    parent = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]  # IQR 4.5
    change = [v - 0.5 for v in parent]  # wins every pair, median gap 0.5
    line = summary(alternating(parent, change))["frame-sync op_rel.p50"]
    assert "change won 10/10 pairs" in line and "claim rule fails" in line


@pytest.mark.parametrize("change, holds", [(1.2, True), (1.21, False), (0.5, True)])
def test_bound_is_a_fraction_of_the_parent_median(change, holds):
    line = summary(alternating([1.0] * 4, [change] * 4))["frame-sync op_rel.p50"]
    assert ("bound 0.2 holds" if holds else "bound 0.2 fails") in line


def test_higher_is_better_metrics_count_the_other_way():
    runs = alternating([100.0] * 10, [120.0] * 9 + [95.0], name="rate")
    line = summary(runs, (HIGHER,))["frame-sync rate"]
    assert "change won 9/10 pairs" in line and "claim rule holds" in line and "+20.0%" in line
    line = summary(alternating([100.0] * 4, [89.0] * 4, name="rate"), (HIGHER,))["frame-sync rate"]
    assert "claim rule fails" in line and "bound 0.1 fails" in line


def test_failed_operations_per_workload():
    runs = [contract_run("parent@abc1234", "ber-grid", 1, {"op_rel.p50": 5.0}, failed=1, attempted=40),
            contract_run("change@def5678", "ber-grid", 1, {"op_rel.p50": 5.0}, failed=0, attempted=42)]
    lines = summary(runs)
    assert lines["ber-grid failed operations over 1 pairs"].endswith("parent 1/40, change 0/42")


def test_pairs_command_reads_a_record_and_the_benchmark(tmp_path, capsys):
    record = tmp_path / "BENCH.json"
    record.write_text(json.dumps(alternating([1.0, 1.1], [0.9, 1.0])))
    assert bench_record.main(["--pairs", str(record)]) == 0
    lines = capsys.readouterr().out.splitlines()
    # only op_rel.p50 is in the runs, so BENCHMARK.json's other metrics print nothing
    assert [line.split(":")[0] for line in lines] == ["frame-sync op_rel.p50",
                                                    "frame-sync failed operations over 2 pairs"]
