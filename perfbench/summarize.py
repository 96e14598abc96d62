"""Medians and quartiles over the run records in ``.bench_out``.

Run from the root of a checkout after several runs with different seeds:

    python3 perfbench/summarize.py                       # print the spreads
    python3 perfbench/summarize.py --write perfbench/baseline.json

The spread of a metric is (Q3 - Q1) / median over the per-run medians, with
quartiles as ``statistics.quantiles(values, n=4)`` gives them.  Traced
records give the per-layer table; records made with ``--blas-threads``
are kept apart as diagnostics and never mixed into the default numbers.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path.cwd()


def spread(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "runs": len(values), "values": values}


def collect(out_dir: Path) -> dict:
    groups: dict[str, list[dict]] = {}
    for path in sorted(out_dir.glob("*.json")):
        with open(path) as fh:
            rec = json.load(fh)
        kind = "diagnostic" if rec.get("diagnostic") else ("traced" if rec["trace"] else "default")
        groups.setdefault(f"{kind}:{rec['workload']}", []).append(rec)
    return groups


def summarize(groups: dict, spec: dict) -> dict:
    out: dict = {"workloads": {}, "diagnostics": {}, "per_layer": {}}
    for key, recs in sorted(groups.items()):
        kind, workload = key.split(":", 1)
        recs = [r for r in recs if not r.get("delta_exp")]  # self-test runs at coarse delta
        if not recs:
            continue
        if kind == "traced":
            last = recs[-1]
            out["per_layer"][workload] = {
                "seed": last["seed"], **{k: v["value"] for k, v in last["result"]["metrics"].items()}
            }
            continue
        metrics = {}
        for m in spec["end_to_end"]:
            values = [r["result"]["metrics"][m["name"]]["value"] for r in recs
                      if m["name"] in r["result"]["metrics"]]
            if values:
                metrics[m["name"]] = {"unit": m["unit"], **spread(values)}
        entry = {
            "why": WORKLOADS[workload]["why"],
            "run_seconds": recs[-1].get("run_seconds"),
            "seeds": [r["seed"] for r in recs],
            "attempted": sum(r["result"]["attempted"] for r in recs),
            "failed": sum(r["result"]["failed"] for r in recs),
            "environment": recs[-1]["environment"],
            "metrics": metrics,
        }
        if kind == "diagnostic":
            entry["diagnostic"] = recs[-1]["diagnostic"]
            out["diagnostics"][workload] = entry
        else:
            out["workloads"][workload] = entry
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--records", default=str(ROOT / ".bench_out"))
    parser.add_argument("--write", default=None, help="also write the summary as JSON here")
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = summarize(collect(Path(args.records)), spec)
    for section in ("workloads", "diagnostics"):
        for workload, entry in summary[section].items():
            label = f"{workload} [{entry['diagnostic']}]" if section == "diagnostics" else workload
            print(f"{label}: {len(entry['seeds'])} runs, {entry['failed']}/{entry['attempted']} failed")
            for name, s in entry["metrics"].items():
                flag = "" if s["spread"] < bounds[name] / 3 else "  <-- above bound/3"
                print(f"  {name:<16} median {s['median']:.6g} {s['unit']}  "
                      f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.4f} "
                      f"(bound {bounds[name]}){flag}")
    if args.write:
        with open(args.write, "w") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
