"""Collect saved perfbench runs into one BENCH_*.json record.

    python3 tools/bench_record.py BENCH_6.json parent=runs/parent-1.txt change=runs/change-1.txt ...

Each argument after the output path is LABEL=FILE, FILE being the saved
stdout of one `python3 perfbench/run.py --workload W ...` run; a label may be
given many times. The record is a JSON list with one line per run, in the
order given: its label, its header (workload, seed, seconds, trace, rounds),
its `env` line, its raw report lines (`kernel_s`, `ber_trials_per_s.*`,
`peak_trials_per_s`, `calibrate_s`, ...), its closing contract JSON and its
commit. The commit is `env.commit` when the run knew it, else the sha of a
`NAME@<sha>` label, else null; a run from a plain copy of a checkout prints
`env.commit` "unknown".
"""
from __future__ import annotations

import json
import sys

# already in the contract JSON; every other numeric report line is kept as raw
END_TO_END = {"setup_s", "peak_rss_mb", "op_rel.p50", "op_rel.p90", "round_rel"}


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


def main(argv) -> int:
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
