"""Smoke test: every workload and the traced mode run at tiny sizes in seconds.

It checks that the harness runs and emits every metric, not how fast anything is.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.import_chirplab()

import workloads as wl  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
REPORTED = {
    "frame-sync": ("frame_s.sf7.p50", "frame_s.sf7.p90", "frame_s.sf10.p50"),
    "ber-grid": ("ber_trials_per_s.sf7", "ber_trials_per_s.sf10", "peak_trials_per_s"),
    "calibrate": ("calibrate_s",),
}
COUNTS = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]


def tiny_workloads():
    reference = json.loads((BENCH / "reference.json").read_text())
    return {
        "frame-sync": wl.FrameSync(wl.FrameSyncConfig(classes=(
            wl.FrameClass(sf=7, snrs_db=(-8.0, 4.0), assured_snr_db=4.0, airtimes=(1,), betas=(1.0, 0.5)),
            wl.FrameClass(sf=10, snrs_db=(4.0,), assured_snr_db=4.0, airtimes=(1,), betas=(1.0,)),
        ))),
        "ber-grid": wl.BerGrid(wl.BerGridConfig(
            ber=(wl.BerCells(sf=7, betas=(1.0, 0.5), snrs_db=(-8.0,), trials=2000),
                 wl.BerCells(sf=10, betas=(1.0,), snrs_db=(-17.0,), trials=256)),
            peak=(wl.PeakCells(sf=7, betas=(1.0, 0.5), snr_db=0.0, trials=500),)), reference),
        "calibrate": wl.Calibrate(wl.CalibrateConfig(trials=10_000, histories=20), reference),
    }


def bench(capsys, workload, trace, workloads=None):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)],
                    workloads=workloads or tiny_workloads())
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", ["frame-sync", "ber-grid", "calibrate"])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted(capsys, workload, trace):
    code, lines, result = bench(capsys, workload, trace)
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} == \
        {metric["name"]: metric["unit"] for metric in declared}
    printed = {line.split()[0] for line in lines[:-1]}
    assert {"env", "setup_s", "peak_rss_mb", "fail_ratio", *REPORTED[workload]} <= printed
    env = json.loads(next(line for line in lines if line.startswith("env "))[len("env "):])
    assert {"python", "numpy", "chirplab", "cores", "commit"} <= set(env)


def test_counters_repeat_exactly(capsys):
    first = bench(capsys, "frame-sync", 1)[2]["metrics"]
    second = bench(capsys, "frame-sync", 1)[2]["metrics"]
    assert {name: first[name] for name in COUNTS} == {name: second[name] for name in COUNTS}
    assert first["framing.sync_windows_per_frame"]["value"] > 0


def test_failed_check_exits_nonzero(capsys, monkeypatch):
    decode_frame = wl.framing.decode_frame

    def corrupted(*args, **kwargs):
        payload, rf, diag = decode_frame(*args, **kwargs)
        return [(s + 1) % 128 for s in payload], rf, diag

    monkeypatch.setattr(wl.framing, "decode_frame", corrupted)
    code, lines, result = bench(capsys, "frame-sync", 0)
    assert code == 1 and not result["correct"] and result["failed"] > 0
    assert any(line.startswith("FAILED CHECK") for line in lines)


def test_checkout_without_chirplab_exits_nonzero(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("_out", "__pycache__"))
    done = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "ber-grid", "--seed", "0",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode != 0 and "{" not in done.stdout
