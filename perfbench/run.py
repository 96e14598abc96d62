"""pauliprop benchmark: end-to-end metrics, or per-layer metrics when traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload heavy-hex-kicked --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload, untraced and traced

Each execution of a workload is a fresh ``python3 perfbench/child.py``
process that inherits this process's environment unchanged (the BLAS
threading a user gets included).  Executions repeat until ``--seconds`` have
passed; the metrics are medians over the executions whose outputs matched
the committed fingerprints in ``perfbench/references.json``.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` alternates untraced and traced executions, reports the
per-layer metrics from the traced ones and the difference of the two
median wall times as ``trace.overhead_s``.  Spans go to
``.bench_out/``, one CSV per traced execution.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A checkout without
``src/pauliprop`` exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata, util
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORK_ROOT = ROOT / ".bench_work"
OUT_DIR = ROOT / ".bench_out"
LIMIT_S = 150.0  # no execution may run past this point of a run
SETUP_PROBES = 3  # extra set-up-only processes per untraced run, for the setup_s median
EXIT_SETUP = 3
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

sys.path.insert(0, str(HERE))
from workloads import DEFAULT_SEED, WORKLOADS, mismatches  # noqa: E402


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark at all."""


# -- environment --------------------------------------------------------------


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS loaded into this process, if any."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(blas_threads: int | None) -> dict:
    """Versions and machine facts; BLAS threads as an execution sees them."""
    import numpy

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads or _blas_threads(),
        "blas_env": {k: str(blas_threads) if blas_threads else os.environ.get(k) for k in BLAS_VARS},
        "numba_importable": util.find_spec("numba") is not None,
        "cpu_count": os.cpu_count(),
    }


# -- executions ---------------------------------------------------------------


def _steal_s() -> float | None:
    """CPU time the hypervisor gave to others, summed over this machine's CPUs."""
    try:
        with open("/proc/stat") as fh:
            return int(fh.readline().split()[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def run_child(args, index: int, traced: bool, work: Path, env: dict, deadline: float,
              setup_only: bool = False) -> dict:
    result = work / f"child{index}.json"
    spans = OUT_DIR / f"spans-{args.tag}-{index}.csv"
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(int(traced)),
           "--work", str(work / f"child{index}"), "--result", str(result), "--spans", str(spans)]
    if args.delta_exp is not None:
        cmd += ["--delta-exp", str(args.delta_exp)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired:
        return {"ok": False, "traced": traced, "error": "timed out", "elapsed_s": time.monotonic() - start}
    if proc.returncode == EXIT_SETUP:
        raise SetupError(proc.stderr.strip())
    if proc.returncode != 0 or not result.exists():
        return {"ok": False, "traced": traced, "elapsed_s": time.monotonic() - start,
                "error": f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    with open(result) as fh:
        record = json.load(fh)
    record["elapsed_s"] = time.monotonic() - start
    shutil.rmtree(work / f"child{index}", ignore_errors=True)
    return record


def check(records: list[dict], ref: dict | None, seed: int) -> None:
    """Mark each record passed or not; a mismatch is a failure."""
    peer = None
    for rec in records:
        if not rec.get("ok") or rec.get("setup_only"):
            rec["passed"] = bool(rec.get("ok"))
            continue
        if ref is None:
            rec["problems"] = ["no committed reference for this workload"]
        else:
            fp = rec["fingerprint"]
            rec["problems"] = mismatches(fp, ref, seed == ref["seed"], peer)
            layers = rec.get("layers")
            if layers and layers["engine.row_gates"] != ref["row_gates_total"]:
                rec["problems"].append("traced row-gate total differs")
            peer = peer or fp
        rec["passed"] = not rec["problems"]


def median(values):
    return statistics.median(values) if values else None


def end_to_end(records: list[dict], ref: dict) -> dict:
    passed = [r for r in records if r["passed"] and not r.get("setup_only")]
    if not passed:
        return {}
    return {
        "wall_s": median([r["wall_s"] for r in passed]),
        "cpu_s": median([r["cpu_s"] for r in passed]),
        "row_gates_per_s": median([ref["row_gates_total"] / r["wall_s"] for r in passed]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in passed]),
        "setup_s": median([r["setup_s"] for r in records if r["passed"]]),
    }


def per_layer(passed: list[dict], untraced: list[dict]) -> dict:
    traced = [r for r in passed if r["traced"]]
    if not traced:
        return {}
    out = {k: median([r["layers"][k] for r in traced]) for k in traced[0]["layers"]}
    if untraced:
        base = median([r["wall_s"] for r in untraced])
        out["trace.overhead_s"] = median([r["wall_s"] for r in traced]) - base
        out["trace.overhead_share"] = out["trace.overhead_s"] / base
    return out


def run_workload(args, spec: dict) -> dict:
    """All executions of one workload; returns the result object."""
    env = dict(os.environ)
    if args.blas_threads is not None:  # diagnostic only: hides the known BLAS spin
        env.update({k: str(args.blas_threads) for k in BLAS_VARS})
    args.tag = (f"{args.workload}-seed{args.seed}-trace{args.trace}"
                + (f"-delta2^-{args.delta_exp}" if args.delta_exp else "")
                + (f"-blas{args.blas_threads}" if args.blas_threads else ""))
    with open(args.references) as fh:
        references = json.load(fh)
    key = args.workload + (f"@2^-{args.delta_exp}" if args.delta_exp else "")
    ref = references.get(key)

    OUT_DIR.mkdir(exist_ok=True)
    work = WORK_ROOT / str(os.getpid())
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "delta_exp": args.delta_exp,
              "diagnostic": (f"BLAS limited to {args.blas_threads} thread(s)"
                             if args.blas_threads else None),
              "run_seconds": args.seconds, "environment": environment(args.blas_threads),
              "loadavg_before": os.getloadavg()}
    steal_before = _steal_s()
    records: list[dict] = []
    start = time.monotonic()
    try:
        work.mkdir(parents=True, exist_ok=True)
        while True:
            traced = bool(args.trace) and len(records) % 2 == 1
            records.append(run_child(args, len(records), traced, work, env, start + LIMIT_S))
            elapsed = time.monotonic() - start
            longest = max(r["elapsed_s"] for r in records)
            enough = len(records) >= (2 if args.trace else 1) and elapsed >= args.seconds
            if enough or elapsed + longest > LIMIT_S:
                break
        probes = 0 if args.trace or time.monotonic() - start > LIMIT_S - 10 else SETUP_PROBES
        for _ in range(probes):
            probe = run_child(args, len(records), False, work, env, start + LIMIT_S, True)
            probe["setup_only"] = True
            records.append(probe)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK_ROOT.exists() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()
    record["loadavg_after"] = os.getloadavg()
    steal_after = _steal_s()
    if steal_before is not None and steal_after is not None:
        record["cpu_steal_s"] = steal_after - steal_before

    check(records, ref, args.seed)
    passed = [r for r in records if r["passed"]]
    if not args.trace:
        metrics = end_to_end(records, ref)
    else:
        metrics = per_layer(passed, [r for r in passed if not r["traced"]])
    names = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in names}
    failed = len(records) - len(passed)
    complete = all(metrics.get(name) is not None for name in units)
    result = {
        "correct": failed == 0 and complete,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if metrics.get(name) is not None},
    }
    record.update(executions=records, result=result)
    with open(OUT_DIR / f"{args.tag}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    report(record, metrics, units)
    return result


def report(record: dict, metrics: dict, units: dict) -> None:
    env = record["environment"]
    print(f"# {record['workload']} seed={record['seed']} trace={record['trace']}"
          + (f"  DIAGNOSTIC: {record['diagnostic']}" if record["diagnostic"] else ""))
    print("# environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print(f"# loadavg before={record['loadavg_before']} after={record['loadavg_after']}"
          f" cpu_steal_s={record.get('cpu_steal_s')}")
    for i, rec in enumerate(record["executions"]):
        reasons = rec.get("problems") or str(rec.get("error")).strip().splitlines()[-1:]
        state = "ok" if rec["passed"] else "FAILED: " + "; ".join(reasons)
        wall = rec.get("wall_s")
        kind = "set-up probe" if rec.get("setup_only") else f"execution traced={int(rec['traced'])}"
        print(f"#   {i}: {kind} wall_s={wall if wall is None else round(wall, 4)} "
              f"setup_s={rec.get('setup_s') and round(rec['setup_s'], 4)} {state}")
    for name, unit in units.items():
        value = metrics.get(name)
        label = unit + (" (computed from array sizes)" if unit == "B-computed" else "")
        print(f"{name:<36} {'missing' if value is None else format(value, '.6g'):>14} {label}")
    result = record["result"]
    print(f"{'fail_ratio':<36} {result['failed'] / result['attempted']:>14.6g} ratio")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--references", default=str(HERE / "references.json"))
    parser.add_argument("--delta-exp", type=int, default=None,
                        help="run an evolve workload at delta = 2^-N instead (self-test)")
    parser.add_argument("--blas-threads", type=int, default=None,
                        help="diagnostic record only: cap BLAS threads in the executions")
    args = parser.parse_args(argv)
    if args.delta_exp is not None and WORKLOADS.get(args.workload, {}).get("kind") != "evolve":
        parser.error("--delta-exp applies to heavy-hex-kicked and grid-tfim only")

    try:
        if not (ROOT / "src" / "pauliprop" / "__init__.py").is_file():
            raise SetupError(f"no src/pauliprop under {ROOT}; run from the root of a checkout")
        with open(ROOT / "BENCHMARK.json") as fh:
            spec = json.load(fh)
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        if args.workload != "all":
            result = run_workload(args, spec)
        else:
            result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
            for name in WORKLOADS:
                for trace in (0, 1):
                    args.workload, args.trace = name, trace
                    part = run_workload(args, spec)
                    result["correct"] &= part["correct"]
                    result["attempted"] += part["attempted"]
                    result["failed"] += part["failed"]
                    result["metrics"].update(
                        {f"{name}/{k}": v for k, v in part["metrics"].items()})
    except SetupError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
