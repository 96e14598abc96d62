"""One execution of one workload, in a fresh process.

Run from the root of a checkout by ``run.py``; writes one JSON record to
``--result``.  Exit code 3 means pauliprop could not be imported; any other
failure is written into the record and counted by the parent.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

EXIT_SETUP = 3
CLI_COMMANDS = ("gen-circuit", "estimate", "converge", "run", "analyze")
SPANS = ("sums.from_terms", "sums.to_npz", "circuits.build", "circuits.load",
         "estimator.run_probes", "estimator.predict_resources", "convergence.run_protocol",
         "analysis.histogram", "analysis.fit_m_mle", *(f"cli.{cmd}" for cmd in CLI_COMMANDS))
PIPELINE_COUNTS = ("estimator.probes", "estimator.nmax_rel_err", "convergence.steps",
                   "cli.files_written", "cli.bytes_written")

# numpy is imported inside functions: set-up time starts before it is loaded.


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def prepare_evolve(pp, wl, spec, seed):
    """Circuit and observable under the seed's qubit labels, with set-up times."""
    perm = wl.permutation(seed, spec["n"])
    t = time.perf_counter()
    circuit = wl.build_circuit(pp, spec)
    build_s = time.perf_counter() - t
    circuit = wl.relabel_circuit(pp, circuit, perm)  # input generation, not set-up
    t = time.perf_counter()
    observable = pp.PauliSum.from_terms(spec["n"], [(f"Z{perm[spec['qubit']]}", 1.0)])
    observable_s = time.perf_counter() - t
    return circuit, observable, perm, {"build_s": build_s, "observable_s": observable_s}


def run_evolve(pp, wl, spec, seed, delta_exp, tracer):
    circuit, observable, perm, phases = prepare_evolve(pp, wl, spec, seed)
    delta = 2.0 ** -delta_exp
    cpu0, t = _cpu_s(), time.perf_counter()
    final, trace = pp.evolve(circuit, observable, delta)
    wall_s, cpu_s = time.perf_counter() - t, _cpu_s() - cpu0
    peak_rss_mb = _peak_rss_mb()

    state = wl.state_fingerprint(final.bits, final.coeffs, perm, spec["n"])
    fingerprint = {
        "exact": {
            "n_max": trace.n_max,
            "k_star": trace.k_star,
            "row_gates": sum(g.n_before for g in trace.gates),
            "final_rows": state["rows"],
            "state_sha256": state["state_sha256"],
            "expectation": state["expectation"],
        },
        "close": {"engine_expectation": pp.expectation(final)},
    }
    record = {
        "setup_phases": phases,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "fingerprint": fingerprint,
    }
    return record, {}


def run_pipeline(cli, wl, spec, seed, work: Path, tracer):
    delta = 2.0 ** -spec["delta_exp"]
    perm = wl.permutation(seed, spec["n"])
    observable = f"Z{perm[spec['qubit']]}"
    circuit = str(work / "circuit.json")
    out = {name: work / name for name in ("estimate", "converge", "run", "analyze")}
    times: dict[str, float] = {}
    cpu_total = 0.0

    def command(argv):
        nonlocal cpu_total
        name = argv[0]
        span = tracer.span(f"cli.{name}") if tracer else nullcontext()
        cpu0, t = _cpu_s(), time.perf_counter()
        with span:
            code = cli.main([str(a) for a in argv])
        times[name] = time.perf_counter() - t
        cpu_total += _cpu_s() - cpu0
        if code != 0:
            raise RuntimeError(f"`pauliprop {name}` exited with code {code}")

    command(["gen-circuit", "kicked-ising", "--T", 20, "--theta-x", "random",
             "--seed", wl.PIPELINE_CIRCUIT_SEED, "--out", circuit])
    wl.relabel_circuit_file(circuit, perm)  # input generation, not timed
    common = ["--circuit", circuit, "--observable", observable]
    command(["estimate", *common, "--delta0", repr(2.0**-6), "--ratio", repr(2.0**-0.5),
             "--count", 6, "--targets", f"{2.0**-9!r},{2.0**-10!r}", "--out-dir", out["estimate"]])
    command(["converge", *common, "--max-steps", 8, "--out-dir", out["converge"]])
    command(["run", *common, "--delta", repr(delta), "--snapshots", "steps",
             "--out-dir", out["run"]])
    (peak,) = sorted(out["run"].glob("snapshot_peak_k*.npz"))
    command(["analyze", "--snapshot", peak, "--histogram", "--mle", "--xmin-mult", "1,2,3",
             "--delta", repr(delta), "--out-dir", out["analyze"]])
    wall_s = sum(times.values())
    peak_rss_mb = _peak_rss_mb()

    def load(path):
        with open(path) as fh:
            return json.load(fh)

    summary = load(out["run"] / "summary.json")
    report = load(out["converge"] / "report.json")
    fits = load(out["analyze"] / "fits.json")
    prediction = load(out["estimate"] / "prediction.json")
    with open(out["run"] / "trace.csv", newline="") as fh:
        row_gates = sum(int(row["n_before"]) for row in csv.DictReader(fh))
    import numpy as np

    with np.load(out["run"] / f"snapshot_k{summary['gates']:06d}.npz") as snap:
        state = wl.state_fingerprint(snap["bits"], snap["coeffs"], perm, spec["n"])
    predicted = prediction["prediction"]["predicted_n_max"]
    fingerprint = {
        "exact": {
            "n_max": summary["n_max"],
            "k_star": summary["k_star"],
            "row_gates": row_gates,
            "final_rows": state["rows"],
            "state_sha256": state["state_sha256"],
            "expectation": state["expectation"],
            "histogram_sha256": wl.file_sha256(out["analyze"] / "histogram.csv"),
            "probe_n_max": [p["n_max"] for p in prediction["series"]["probes"]],
            "converge_n_max": [s["n_max"] for s in report["steps"]],
            "converge_status": report["status"],
            "local_minimum_risk": report["local_minimum_risk"],
        },
        "close": {"summary": summary, "report": report, "fits": fits, "predicted_n_max": predicted},
        "bytes": {
            name: wl.file_sha256(out[cmd] / name)
            for cmd, name in (("run", "summary.json"), ("converge", "report.json"),
                              ("analyze", "fits.json"))
        },
    }
    files = [p for p in work.rglob("*") if p.is_file()]
    record = {
        "setup_phases": {},
        "command_s": times,
        "wall_s": wall_s,
        "cpu_s": cpu_total,
        "peak_rss_mb": peak_rss_mb,
        "fingerprint": fingerprint,
    }
    extra = {
        "estimator.probes": len(prediction["series"]["probes"]),
        "estimator.nmax_rel_err": abs(predicted[-1] - summary["n_max"]) / summary["n_max"],
        "convergence.steps": len(report["steps"]),
        "cli.files_written": len(files),
        "cli.bytes_written": sum(p.stat().st_size for p in files),
    }
    return record, extra


def _percentile_us(values, q) -> float:
    import numpy as np

    return float(np.percentile(values, q)) * 1e-3 if len(values) else 0.0


def layer_metrics(tracer, extra: dict) -> dict:
    """Per-layer numbers from the spans and from the returned TraceLogs."""
    from tracer import KERNEL_FNS

    totals = tracer.totals()

    def get(name, key):
        return totals.get(name, {}).get(key, 0)

    out: dict[str, float] = {}
    evolve_s = get("engine.evolve", "s")
    kernel_self = 0.0
    for fn in KERNEL_FNS:
        name = f"kernels.{fn}"
        self_s = get(name, "self_s")
        kernel_self += self_s
        out[f"{name}.s"] = self_s
        out[f"{name}.calls"] = get(name, "calls")
        out[f"{name}.rows"] = tracer.rows[name]
        out[f"{name}.bytes"] = tracer.bytes[name]
        out[f"{name}.share"] = self_s / evolve_s if evolve_s else 0.0
    out["kernels.share"] = kernel_self / evolve_s if evolve_s else 0.0

    gates = [g for t in tracer.traces for g in t.gates]
    half_pi = math.pi / 2

    def clifford(theta):
        q = round(theta / half_pi)
        return q % 4 != 0 and theta - q * half_pi == 0.0

    idle = [g for g in gates if g.phi == 0.0]
    cliff = [g for g in gates if clifford(g.theta)]
    gate_ns = sum(g.elapsed_ns for g in gates)
    row_gates = sum(g.n_before for g in gates)
    row_bytes = max((16 * ((t.n + 63) // 64) + 8 for t in tracer.traces), default=0)
    out.update({
        "engine.evolve.s": evolve_s,
        "engine.self_s": get("engine.evolve", "self_s"),
        "engine.gates": len(gates),
        "engine.idle_gates": len(idle),
        "engine.clifford_gates": len(cliff),
        "engine.row_gates": row_gates,
        "engine.branched_rows": sum(g.n_after - g.n_before + g.truncated for g in gates),
        "engine.merged_rows": sum(round(g.eta * g.n_before) for g in gates if not clifford(g.theta)),
        "engine.truncated_rows": sum(g.truncated for g in gates),
        "engine.ns_per_row_gate": evolve_s * 1e9 / row_gates if row_gates else 0.0,
        "engine.gate_us.p50": _percentile_us([g.elapsed_ns for g in gates], 50),
        "engine.gate_us.p99": _percentile_us([g.elapsed_ns for g in gates], 99),
        "engine.idle_gate_us.p50": _percentile_us([g.elapsed_ns for g in idle], 50),
        "engine.idle_share": sum(g.elapsed_ns for g in idle) / gate_ns if gate_ns else 0.0,
        "engine.clifford_share": sum(g.elapsed_ns for g in cliff) / gate_ns if gate_ns else 0.0,
        "engine.peak_state_bytes": max((t.n_max for t in tracer.traces), default=0) * row_bytes,
        "kernels.anti_mask.hit_ratio": (
            sum(g.phi * g.n_before for g in gates) / row_gates if row_gates else 0.0
        ),
    })
    for name in SPANS:
        out[f"{name}.s"] = get(name, "s")
    out["sums.to_npz.bytes"] = tracer.bytes["sums.to_npz"]
    out["cli.self_s"] = sum(get(f"cli.{cmd}", "self_s") for cmd in CLI_COMMANDS)
    out.update(dict.fromkeys(PIPELINE_COUNTS, 0))
    out.update(extra)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--delta-exp", type=int, default=None)
    parser.add_argument("--work", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--setup-only", action="store_true",
                        help="only import and build the inputs, to sample set-up time")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    t0 = time.perf_counter()
    try:
        import pauliprop

        if args.workload == "random-kicks-pipeline":
            from pauliprop import cli
    except ImportError as exc:
        print(f"cannot import pauliprop from ./src: {exc}", file=sys.stderr)
        return EXIT_SETUP
    import_s = time.perf_counter() - t0

    import workloads as wl
    from tracer import Tracer

    spec = wl.WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    record = {"workload": args.workload, "seed": args.seed, "traced": bool(args.trace),
              "ok": False, "error": None}
    try:
        if tracer is not None:
            tracer.install(with_cli=spec["kind"] == "pipeline")
        if args.setup_only:
            phases = {}
            if spec["kind"] == "evolve":
                phases = prepare_evolve(pauliprop, wl, spec, args.seed)[3]
            result, extra = {"setup_phases": phases}, {}
        elif spec["kind"] == "pipeline":
            work = Path(args.work)
            work.mkdir(parents=True, exist_ok=True)
            result, extra = run_pipeline(cli, wl, spec, args.seed, work, tracer)
        else:
            delta_exp = args.delta_exp or spec["delta_exp"]
            result, extra = run_evolve(pauliprop, wl, spec, args.seed, delta_exp, tracer)
        record.update(result)
        record["setup_phases"]["import_s"] = import_s
        record["setup_s"] = sum(record["setup_phases"].values())
        if tracer is not None:
            record["layers"] = layer_metrics(tracer, extra)
            if args.spans:
                tracer.write_spans(args.spans)
        record["ok"] = True
    except Exception:  # the parent counts the run as failed and keeps the traceback
        record["error"] = traceback.format_exc()
    with open(args.result, "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
