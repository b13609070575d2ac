"""Collect saved perfbench runs into one BENCH_*.json record, or summarize a record's parent/change pairs.

    python3 tools/bench_record.py BENCH_6.json parent=runs/parent-1.txt change=runs/change-1.txt ...
    python3 tools/bench_record.py --pairs BENCH_6.json [BENCHMARK.json]

Each argument after the output path is LABEL=FILE, FILE being the saved
stdout of one `python3 perfbench/run.py --workload W ...` run; a label may be
given many times. The record is a JSON list with one line per run, in the
order given: its label, its header (workload, seed, seconds, trace, rounds),
its `env` line, its raw report lines (`kernel_s`, `ber_trials_per_s.*`,
`peak_trials_per_s`, `calibrate_s`, ...), its closing contract JSON and its
commit. The commit is `env.commit` when the run knew it, else the sha of a
`NAME@<sha>` label, else null; a run from a plain copy of a checkout prints
`env.commit` "unknown".

`--pairs` reads a record (and the benchmark's BENCHMARK.json, by default the
one beside tools/, only to read it) and prints one line per workload and
end-to-end metric. A run's side is its label up to any `@`: `parent` or
`change`, other labels are left out. A pair is a parent run and a change run
of one workload, seed, length and trace setting. Each line gives both sides'
median and quartiles over the paired runs, the pairs the change won (a tie
wins for neither), whether the claim rule holds (the change won at least 9
in 10 of the pairs, and its median is better than the parent's by more than
the parent's interquartile range), and whether the metric's bound holds (the
change's median is no worse than the parent's by more than the bound, a
fraction of the parent's median). A last line per workload counts failed
operations on each side.
"""
from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

# already in the contract JSON; every other numeric report line is kept as raw
END_TO_END = {"setup_s", "peak_rss_mb", "op_rel.p50", "op_rel.p90", "round_rel"}
BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
CLAIM_SHARE = 0.9  # the change must win at least 9 in 10 pairs


def parse_run(label: str, text: str) -> dict:
    lines = text.strip().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("perfbench "))
    header = dict(field.split("=", 1) for field in lines[start].split()[2:])
    run = {"label": label, "workload": lines[start].split()[1],
           **{k: json.loads(v) for k, v in header.items()}, "raw": {}}
    for line in lines[start + 1:-1]:
        # "<name> <value> <unit> (n=<count>)", or "<name> <value> (n=...)" for a ratio
        name, value, unit = (line.split() + ["", ""])[:3]
        if name == "env":
            run["env"] = json.loads(line[len("env "):])
            continue
        try:
            number = float(value)
        except ValueError:  # a FAILED CHECK note
            continue
        if name not in END_TO_END:
            run["raw"][name] = {"value": number, "unit": "" if unit.startswith("(") else unit}
    run["contract"] = json.loads(lines[-1])
    known = run.get("env", {}).get("commit", "unknown")
    run["commit"] = known if known != "unknown" else label.partition("@")[2] or None
    return run


def quartiles(values) -> tuple[float, float, float]:
    """(Q1, median, Q3), interpolated linearly between the sorted values (NumPy's default percentile)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def pairs_by_workload(runs) -> dict:
    """{workload: [(parent run, change run), ...]}, pairing runs of one seed, length and trace setting in order."""
    sides = {}
    for run in runs:
        side = run["label"].partition("@")[0]
        if side in ("parent", "change"):
            key = (run["workload"], run["seed"], run["seconds"], run["trace"])
            sides.setdefault(key, {"parent": [], "change": []})[side].append(run)
    out = {}
    for (workload, *_), both in sides.items():
        out.setdefault(workload, []).extend(zip(both["parent"], both["change"]))
    return out


def summarize_pairs(runs, metrics) -> list[str]:
    """The --pairs report: one line per workload and end-to-end metric of `metrics`, then its failed operations."""
    lines = []
    for workload, pairs in pairs_by_workload(runs).items():
        for metric in metrics:
            name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
            values = [(parent["contract"]["metrics"][name]["value"], change["contract"]["metrics"][name]["value"])
                      for parent, change in pairs if all(name in run["contract"]["metrics"] for run in (parent, change))]
            if not values:
                continue
            (p1, p, p3), (c1, c, c3) = quartiles([v for v, _ in values]), quartiles([v for _, v in values])
            won = sum(sign * (v - u) < 0 for u, v in values)
            gap = sign * (p - c)  # > 0 when the change's median is better
            claim = won >= CLAIM_SHARE * len(values) and gap > p3 - p1
            bound = -gap <= metric["bound"] * abs(p)
            lines.append(f"{workload} {name}: parent {p:.6g} [{p1:.6g}, {p3:.6g}], change {c:.6g} [{c1:.6g}, {c3:.6g}]"
                         f", {(c - p) / p if p else 0.0:+.1%}; change won {won}/{len(values)} pairs; claim rule "
                         f"{'holds' if claim else 'fails'} (gap {gap:.3g}, parent IQR {p3 - p1:.3g}); "
                         f"bound {metric['bound']} {'holds' if bound else 'fails'}")
        failed, attempted = ([sum(run["contract"][key] for run in side) for side in zip(*pairs)]
                             for key in ("failed", "attempted"))
        lines.append(f"{workload} failed operations over {len(pairs)} pairs: parent {failed[0]}/{attempted[0]}, "
                     f"change {failed[1]}/{attempted[1]}")
    return lines


def main(argv) -> int:
    if argv[:1] == ["--pairs"] and len(argv) in (2, 3):
        with open(argv[1]) as handle:
            runs = json.load(handle)
        with open(argv[2] if len(argv) == 3 else BENCHMARK) as handle:
            metrics = json.load(handle)["end_to_end"]
        print("\n".join(summarize_pairs(runs, metrics)))
        return 0
    if len(argv) < 2 or not all("=" in arg for arg in argv[1:]):
        print(__doc__, file=sys.stderr)
        return 2
    runs = []
    for arg in argv[1:]:
        label, path = arg.split("=", 1)
        with open(path) as handle:
            runs.append(parse_run(label, handle.read()))
    with open(argv[0], "w") as handle:
        handle.write("[\n" + ",\n".join(json.dumps(run) for run in runs) + "\n]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
