"""Record the reference outputs the benchmark checks against: python3 perfbench/make_reference.py

Run at the commit whose outputs count as correct. Each reference cell uses
more trials than a benchmark cell, under a master seed far from the small
seeds benchmark runs use, so a benchmark cell is tested against an
independent sample.
Writes perfbench/reference.json; takes a few minutes.
"""
from __future__ import annotations

import json
import statistics

import run

REFERENCE_SEED = 2**40 + 1
BER_TRIALS_FACTOR = 8
PEAK_REPEATS = 10
THRESHOLD_TRIALS_FACTOR = 10


def main():
    run.import_chirplab()
    import workloads
    from chirplab import adaptive, experiments
    from chirplab.chirps import LoraParams

    ber = {}
    for cells in workloads.BER_GRID.ber:
        cfg = experiments.ExperimentConfig(
            sf_list=(cells.sf,), beta_list=cells.betas, snr_start_db=min(cells.snrs_db),
            snr_stop_db=max(cells.snrs_db), snr_step_db=1.0, trials=cells.trials * BER_TRIALS_FACTOR,
            seed=REFERENCE_SEED)
        for row in experiments.run_ber_sweep(cfg):
            ber[f"{row['sf']}/{row['beta']}/{row['snr_db']}"] = {
                "trials": row["trials"], "symbol_errors": row["symbol_errors"], "ser": row["ser"]}

    peak = {}
    for cells in workloads.BER_GRID.peak:
        means = {}
        for k in range(PEAK_REPEATS):
            cfg = experiments.ExperimentConfig(
                sf_list=(cells.sf,), beta_list=cells.betas, snr_start_db=cells.snr_db,
                snr_stop_db=cells.snr_db, trials=cells.trials, seed=REFERENCE_SEED + k)
            for row in experiments.run_peak_experiment(cfg):
                means.setdefault(f"{row['sf']}/{row['beta']}/{row['snr_db']}", []).append(row["mean_peak"])
        for key, values in means.items():
            # sd is the spread of one mean over `trials` trials
            peak[key] = {"trials": cells.trials, "mean_peak": statistics.fmean(values),
                         "sd": statistics.stdev(values), "repeats": len(values)}

    cal = workloads.CALIBRATE
    trials = cal.trials * THRESHOLD_TRIALS_FACTOR
    table = adaptive.calibrate_thresholds([LoraParams(sf=cal.sf, bw=workloads.BW)], betas=cal.betas,
                                          target_ser=cal.target_ser, trials=trials, seed=REFERENCE_SEED)
    thresholds = {f"{sf}/{beta}/{cal.target_ser}": {"trials": trials, "required_snr_db": snr}
                  for (sf, beta), snr in table.entries.items()}

    reference = {"recorded_with": run.environment(), "seed": REFERENCE_SEED,
                 "ber": ber, "peak": peak, "thresholds": thresholds}
    (run.HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()
