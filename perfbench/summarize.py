"""Median, quartiles and quartile spread of every metric over recorded runs.

    python3 perfbench/summarize.py [RECORD.json ...]

Reads the given record files (default: every file in perfbench/results/),
groups them by workload and trace mode, and prints one JSON object:
for each metric, the run count, median, first and third quartile, and
spread = (q3 - q1) / median as given by statistics.quantiles(values, n=4).
"""

import json
import sys
from collections import defaultdict
from pathlib import Path
from statistics import median, quantiles

RESULTS = Path(__file__).resolve().parent / "results"


def summarize(paths) -> dict:
    groups = defaultdict(lambda: defaultdict(list))
    seeds = defaultdict(list)
    machine = None
    for path in paths:
        record = json.loads(Path(path).read_text(encoding="utf-8"))
        key = f"{record['workload']}/trace{record['trace']}"
        seeds[key].append(record["seed"])
        machine = machine or record["machine"]
        for name, metric in record["metrics"].items():
            groups[key][name].append(metric["value"])
    table = {}
    for key in sorted(groups):
        table[key] = {"seeds": sorted(seeds[key]), "metrics": {}}
        for name, values in groups[key].items():
            mid = median(values)
            q1, _, q3 = quantiles(values, n=4) if len(values) > 1 else (mid, mid, mid)
            table[key]["metrics"][name] = {
                "runs": len(values), "median": mid, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / mid if mid else 0.0,
            }
    return {"machine": machine, "groups": table}


if __name__ == "__main__":
    files = sys.argv[1:] or sorted(RESULTS.glob("*.json"))
    print(json.dumps(summarize(files), indent=1))
