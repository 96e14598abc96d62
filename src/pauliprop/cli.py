"""Batch command-line surface.

Every command ends the same way: :func:`main` makes the command's manifest,
runs the command, writes the manifest, and maps every way out to one exit
code, in one place.  FORMATS.md states that lifecycle once ("Manifest" and
"Stops at a limit"): when the output directory appears, what bad input
(exit 2), a stop at a limit (exit 3 or 4) and a numerical error (exit 5)
leave behind, and which files are byte-stable.

Relative output paths resolve under $PAULIPROP_DATA_DIR when it is set.
``run --snapshots steps`` snapshots the peak and the end of every Trotter
step, at multiples of the circuit file's ``metadata.gates_per_step``;
``--snapshots`` also takes comma-separated gate indices in 1..len(circuit).
Anything else is bad input, rejected before anything is written.
``--config FILE`` supplies defaults from a JSON object keyed by option
name (underscores), each value typed as the same text on the command line
would be; explicit flags win over the config file, which wins over built-in
defaults, and the manifest records the resolved values.
"""

from __future__ import annotations

import argparse
import datetime
import math
import os
import platform
import resource
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .analysis import (
    DEFAULT_BINS,
    DEFAULT_REGRESSION_L,
    DEFAULT_SPIKE_THRESHOLD,
    PowerLawModel,
    QuadratureError,
    detect_eta_spikes,
    fit_m_mle,
    fit_m_regression,
    histogram,
    s_theta_sweep,
)
from .circuits import (
    Circuit,
    FixedAngle,
    UniformRandomAngle,
    builtin_topology,
    kicked_ising,
    load_topology,
    tfim_trotter_grid,
)
from .convergence import STATUS_CONVERGED, ConvergenceConfig, run_protocol
from .engine import Aborted, BudgetExceeded, RowCapExceeded, evolve, expectation, read_trace
from .estimator import (
    DEFAULT_DELTA_0,
    DEFAULT_PROBE_COUNT,
    DEFAULT_RATIO,
    DEFAULT_TAIL_POINTS,
    _check_targets,
    _probe_deltas,
    predict_resources,
    run_probes,
)
from .files import read_json, write_csv, write_json
from .pauli import InvariantViolation
from .sums import PauliSum

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_BUDGET = 4
EXIT_NUMERICAL = 5
# the exit code of each way a run can stop at a limit
ABORT_EXIT = {BudgetExceeded: EXIT_BUDGET, RowCapExceeded: EXIT_RESOURCE}


def _environment() -> dict:
    """What a slow or failed run needs explained: versions, BLAS, threads, host load."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": {key: os.environ.get(key) for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "cpu_count": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
    }


class _Manifest:
    """Run provenance: resolved config, artifacts, wall time, versions, environment.

    It owns the output location: ``add`` makes the directory with the first
    artifact, and ``write`` puts the manifest there as ``name``, listed last.
    """

    def __init__(self, command: str, args: argparse.Namespace, out_dir: Path,
                 name: str = "manifest.json"):
        self.out_dir, self.name = out_dir, name
        self.payload = {
            "command": command,
            "argv": sys.argv[1:],
            "config": {k: v for k, v in vars(args).items() if k != "func"},
            "engine_version": __version__,
            "environment": _environment(),
            "started_at_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "artifacts": [],
            "timings": {},
        }
        self._t0 = time.monotonic()

    def add(self, name: str) -> Path:
        """The path of a new artifact in the output directory."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / name
        self.payload["artifacts"].append(str(path))
        return path

    def timing(self, key: str, value) -> None:
        self.payload["timings"][key] = value

    def note(self, **fields) -> None:
        """Top-level fields that explain a run; never part of the deterministic artifacts."""
        self.payload.update(fields)

    def write(self, aborted: Aborted | None = None) -> None:
        """Write the manifest; ``aborted`` is the stop at a limit that ended the command."""
        if aborted is not None:
            self.payload["aborted"] = aborted.reason
        self.payload["wall_time_s"] = time.monotonic() - self._t0
        write_json(self.add(self.name), self.payload)


def _resolve_path(path) -> Path:
    """Relative paths land under $PAULIPROP_DATA_DIR when set."""
    out = Path(path)
    base = os.environ.get("PAULIPROP_DATA_DIR")
    if base and not out.is_absolute():
        out = Path(base) / out
    return out


def _load_observable(spec: str, n: int) -> PauliSum:
    """A sparse/dense Pauli label, or a JSON file of (label, coeff) terms."""
    path = Path(spec)
    if path.suffix == ".json":
        payload = read_json(path)
        terms = payload.get("terms") if isinstance(payload, dict) else payload
        try:
            terms = [(str(lbl), float(c)) for lbl, c in terms]
        except (TypeError, ValueError):
            raise ValueError(f"observable file {spec} must list [label, coeff] terms") from None
        return PauliSum.from_terms(n, terms)
    return PauliSum.from_terms(n, [(spec, 1.0)])


def _inputs(args):
    """The circuit and the observable an evolving command reads."""
    circuit = Circuit.load(args.circuit)
    return circuit, _load_observable(args.observable, circuit.n)


def _resolve_topology(name_or_path: str):
    if os.path.exists(name_or_path):
        return load_topology(name_or_path)
    return builtin_topology(name_or_path)


def _parse_float_list(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"expected a comma-separated float list, got {text!r}") from None


# ---------------------------------------------------------------------------
# gen-circuit
# ---------------------------------------------------------------------------


def cmd_gen_circuit(args, manifest: _Manifest) -> None:
    if args.family == "kicked-ising":
        topo = _resolve_topology(args.topology)
        if args.theta_x == "random":
            if args.seed is None:
                raise ValueError("--theta-x random requires --seed")
            spec = UniformRandomAngle(low=args.theta_x_low, high=args.theta_x_high, seed=args.seed)
        else:
            try:
                spec = FixedAngle(float(args.theta_x))
            except ValueError:
                raise ValueError(f"--theta-x must be a float or 'random', got {args.theta_x!r}") from None
        circuit = kicked_ising(topo, T=args.T, theta_zz=args.theta_zz, theta_x_spec=spec)
    else:
        circuit = tfim_trotter_grid(
            rows=args.rows, cols=args.cols, h=args.h, t_total=args.t, dt=args.dt,
            j_coupling=args.j_coupling,
        )
    out = manifest.add(Path(args.out).name)
    circuit.save(out)
    print(f"wrote {out}: n={circuit.n}, gates={len(circuit)}")


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def _snapshot_gates(spec: str | None, circuit: Circuit):
    """The gate indices ``--snapshots`` names: ``steps`` or comma-separated indices."""
    if spec == "steps":  # the end of every Trotter step the circuit file records
        per_step = circuit.metadata.get("gates_per_step", 0)
        if not (isinstance(per_step, int) and per_step > 0):
            raise ValueError("--snapshots steps needs a positive metadata.gates_per_step")
        return range(per_step, len(circuit) + 1, per_step)
    gates = tuple(int(tok) for tok in spec.split(",")) if spec else ()
    if not all(1 <= k <= len(circuit) for k in gates):
        raise ValueError(f"--snapshots {spec} names a gate outside 1..{len(circuit)}")
    return gates


def cmd_run(args, manifest: _Manifest) -> None:
    circuit, observable = _inputs(args)
    snap_at = set(_snapshot_gates(args.snapshots, circuit))
    track_peak = args.snapshots == "steps"
    peak = None  # (stats, a copy of the state) at the first gate with the most rows so far

    def save(name, k, state):
        path = manifest.add(f"{name}_k{k:06d}.npz")
        state.pauli_sum().to_npz(path, gate_index=k, delta=args.delta)

    def on_gate(stats, state):
        nonlocal peak
        if stats.k in snap_at:
            save("snapshot", stats.k, state)
        if track_peak and (peak is None or stats.n_after > peak[0].n_after):
            peak = (stats, state.copy())

    aborted = None
    t0 = time.monotonic()
    try:
        final, trace = evolve(
            circuit, observable, args.delta, budget_s=args.budget, row_cap=args.max_rows,
            on_gate=on_gate if snap_at or track_peak else None,
        )
    except Aborted as exc:
        aborted, trace, final = exc, exc.trace, exc.partial
    wall = time.monotonic() - t0
    if peak is not None:  # the peak of the gates run, also on a stop
        save("snapshot_peak", peak[0].k, peak[1])

    value = expectation(final)
    trace.to_csv(manifest.add("trace.csv"))
    summary = trace.summary(expectation=value)
    write_json(manifest.add("summary.json"), summary)
    manifest.timing("evolve_s", wall)
    # work and memory: deterministic counts, then the process's resident peak
    manifest.note(
        row_gates=sum(g.n_before for g in trace.gates),
        peak_state_bytes=trace.n_max * (8 * observable.width + 8),
        ru_maxrss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        absorbed_quarter_turns=sum(g.eta is None for g in trace.gates),
    )
    if aborted is not None:  # the partial run is written; main writes the manifest
        raise aborted
    print(f"expectation = {value!r}")


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------


def cmd_estimate(args, manifest: _Manifest) -> None:
    circuit, observable = _inputs(args)

    # the library checks --tail-points and --targets only after probing, so
    # every option is checked here first, the probe deltas before the targets
    if args.tail_points < 0 or args.tail_points == 1:
        raise ValueError(f"--tail-points must be 0 (all) or at least 2, got {args.tail_points}")
    finest_probe = _probe_deltas(args.delta0, args.ratio, args.count)[-1]
    targets = _check_targets(_parse_float_list(args.targets), finest_probe)

    series = run_probes(
        circuit, observable, delta_0=args.delta0, ratio=args.ratio,
        count=args.count, budget_s=args.budget, row_cap=args.max_rows,
    )
    prediction = predict_resources(series, targets, tail_points=args.tail_points)

    write_json(manifest.add("prediction.json"),
               {"series": asdict(series), "prediction": asdict(prediction)})
    write_csv(manifest.add("probes.csv"), ["delta", "n_max", "runtime_s"],
              ((p.delta, p.n_max, p.runtime_s) for p in series.probes))
    for t, nm, rt in zip(targets, prediction.predicted_n_max, prediction.predicted_runtime_s):
        print(f"delta={t:g}: predicted N_max ~ {nm:.4g}, runtime ~ {rt:.4g}s")
    if prediction.low_confidence:
        print("warning: low-confidence prediction (peak near end of circuit)", file=sys.stderr)


# ---------------------------------------------------------------------------
# converge
# ---------------------------------------------------------------------------


def cmd_converge(args, manifest: _Manifest) -> None:
    circuit, observable = _inputs(args)
    config = ConvergenceConfig(
        delta_0=args.delta0, ratio=args.ratio, eps_tol=args.eps_tol, ell=args.ell,
        t_cpu_s=args.t_cpu, max_steps=args.max_steps,
        cumulative_budget_s=args.cumulative_budget,
    )

    # a row-cap stop raises; a budget stop is the report's status
    report = run_protocol(circuit, observable, config, row_cap=args.max_rows)
    write_json(manifest.add("report.json"), report.to_json_dict())
    write_json(manifest.add("timing.json"), report.timing_json_dict())
    write_csv(manifest.add("convergence.csv"), ["log10_inv_delta", "estimate", "runtime_s"],
              ((math.log10(1.0 / s.delta), s.expectation, s.runtime_s) for s in report.steps))
    if not report.steps:
        raise BudgetExceeded("the budget ran out before the first step completed")

    if report.status == STATUS_CONVERGED:
        print(f"status = {report.status}; estimate = {report.final_estimate!r} (window {report.window})")
    else:
        print(f"status = {report.status}; estimate range = {report.estimate_range}")
        if report.extrapolated_runtime_s:
            print(f"next-step runtime extrapolation: {report.extrapolated_runtime_s}")


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def _load_snapshot(path: Path, n_hint: int | None) -> PauliSum:
    if path.suffix == ".npz":
        return PauliSum.from_npz(path)
    if n_hint is None:
        raise ValueError("--n is required to load a CSV snapshot")
    return PauliSum.from_csv(path, n_hint)


def cmd_analyze(args, manifest: _Manifest) -> None:
    # the inputs and the flags that combine them are checked first, then
    # every result is computed, and only then is anything written
    snap = _load_snapshot(Path(args.snapshot), args.n) if args.snapshot else None
    on_snapshot = args.histogram or args.mle or args.regression
    if not (on_snapshot or args.spikes or args.s_theta):
        raise ValueError("nothing to analyze: pass --histogram/--mle/--regression/--spikes/--s-theta")
    if on_snapshot != (snap is not None):
        raise ValueError("--histogram, --mle and --regression need a --snapshot, "
                         "and a --snapshot needs one of them")
    if args.spikes != bool(args.trace):
        raise ValueError("--spikes needs a --trace, and a --trace needs --spikes")
    for fit in ("mle", "regression"):
        if getattr(args, fit) and args.delta is None:
            raise ValueError(f"--{fit} requires --delta")
    if args.s_theta and (args.m is None or args.delta is None):
        raise ValueError("--s-theta requires --m and --delta")
    if args.s_theta and args.theta_count < 1:
        raise ValueError(f"--theta-count must be at least 1, got {args.theta_count}")
    if (args.mle or args.regression) and not args.delta > 0:
        raise ValueError(f"a fit needs a positive --delta, got {args.delta}")
    xmin_mults = _parse_float_list(args.xmin_mult) if args.mle else []
    if args.mle and not (xmin_mults and all(mult > 0 for mult in xmin_mults)):
        raise ValueError(f"--xmin-mult must list positive multiples, got {args.xmin_mult!r}")
    gates = read_trace(args.trace) if args.trace else None

    hist = spikes = s_rows = None
    if args.histogram:
        hist = histogram(
            snap.coeffs, bins=args.bins, absolute=args.absolute,
            delta_floor=args.delta if args.absolute else None,
        )
    fits = [fit_m_mle(snap.coeffs, mult * args.delta) for mult in xmin_mults]
    if args.regression:
        fits.append(fit_m_regression(snap.coeffs, args.delta, l=args.l))
    if args.spikes:
        spikes = detect_eta_spikes(gates, threshold=args.threshold)
    if args.s_theta:
        thetas = np.linspace(args.theta_min, args.theta_max, args.theta_count)
        s_rows = s_theta_sweep(PowerLawModel(m=args.m, delta=args.delta), thetas)

    if hist is not None:
        hist.to_csv(manifest.add("histogram.csv"))
    if fits:
        write_json(manifest.add("fits.json"), [asdict(f) for f in fits])
        for f in fits:
            print(f"{f.method} (x_min={f.x_min:g}): m = {f.m:.6f}")
    if spikes is not None:
        write_json(
            manifest.add("spikes.json"),
            [{"k": k, "eta": eta, "theta": theta} for k, eta, theta in spikes],
        )
        print(f"{len(spikes)} eta spike(s) at threshold {args.threshold}")
    if s_rows is not None:
        write_csv(manifest.add("s_theta.csv"), ["theta", "s", "r"],
                  ((row["theta"], row["s"], row["r"]) for row in s_rows))


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pauliprop",
        description="Sparse Pauli-path propagation, resource estimation, and convergence diagnostics",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    inputs = argparse.ArgumentParser(add_help=False)
    inputs.add_argument("--circuit", required=True)
    inputs.add_argument("--observable", required=True, help="Pauli label or observable JSON file")
    inputs.add_argument("--out-dir", required=True)
    inputs.add_argument("--max-rows", type=int, default=None)

    gen = sub.add_parser("gen-circuit", help="generate a model-family circuit file")
    gen_sub = gen.add_subparsers(dest="family", required=True)

    ki = gen_sub.add_parser("kicked-ising", help="kicked transverse-field Ising")
    ki.add_argument("--topology", default="ibm_heavy_hex_127",
                    help="builtin name or edge-list file (default: ibm_heavy_hex_127)")
    ki.add_argument("--T", type=int, required=True, help="Trotter steps")
    ki.add_argument("--theta-zz", type=float, default=-math.pi / 2)
    ki.add_argument("--theta-x", default="0.3", help="angle in radians, or 'random'")
    ki.add_argument("--theta-x-low", type=float, default=-math.pi / 4)
    ki.add_argument("--theta-x-high", type=float, default=math.pi / 4)
    ki.add_argument("--seed", type=int, default=None)
    ki.add_argument("--out", required=True)
    ki.set_defaults(func=cmd_gen_circuit)

    gi = gen_sub.add_parser("grid-ising", help="2D Ising first-order Trotterization")
    gi.add_argument("--rows", type=int, required=True)
    gi.add_argument("--cols", type=int, required=True)
    gi.add_argument("--h", type=float, required=True)
    gi.add_argument("--t", type=float, required=True, help="total evolution time")
    gi.add_argument("--dt", type=float, required=True)
    gi.add_argument("--j-coupling", type=float, default=-1.0)
    gi.add_argument("--out", required=True)
    gi.set_defaults(func=cmd_gen_circuit)

    run_p = sub.add_parser("run", parents=[inputs], help="propagate an observable at one threshold")
    run_p.add_argument("--delta", type=float, required=True)
    run_p.add_argument("--snapshots", default=None, help="'steps' or comma-separated gate indices")
    run_p.add_argument("--budget", type=float, default=None, help="wall-clock budget (s)")
    run_p.set_defaults(func=cmd_run)

    est = sub.add_parser("estimate", parents=[inputs],
                         help="probe runs + N_max/runtime extrapolation")
    est.add_argument("--delta0", type=float, default=DEFAULT_DELTA_0)
    est.add_argument("--ratio", type=float, default=DEFAULT_RATIO)
    est.add_argument("--count", type=int, default=DEFAULT_PROBE_COUNT)
    est.add_argument("--targets", required=True, help="comma-separated target deltas")
    est.add_argument("--tail-points", type=int, default=DEFAULT_TAIL_POINTS)
    est.add_argument("--budget", type=float, default=None)
    est.set_defaults(func=cmd_estimate)

    conv = sub.add_parser("converge", parents=[inputs], help="apparent-convergence protocol")
    protocol = ConvergenceConfig()
    conv.add_argument("--delta0", type=float, default=protocol.delta_0)
    conv.add_argument("--ratio", type=float, default=protocol.ratio)
    conv.add_argument("--eps-tol", type=float, default=protocol.eps_tol)
    conv.add_argument("--ell", type=int, default=protocol.ell)
    conv.add_argument("--t-cpu", type=float, default=protocol.t_cpu_s, help="per-step budget (s)")
    conv.add_argument("--max-steps", type=int, default=protocol.max_steps)
    conv.add_argument("--cumulative-budget", type=float, default=protocol.cumulative_budget_s)
    conv.set_defaults(func=cmd_converge)

    ana = sub.add_parser("analyze", help="histograms, exponent fits, spikes, s(theta) sweeps")
    ana.add_argument("--snapshot", default=None, help="snapshot .npz or .csv")
    ana.add_argument("--trace", default=None, help="trace CSV (for --spikes)")
    ana.add_argument("--n", type=int, default=None, help="qubit count for CSV snapshots")
    ana.add_argument("--histogram", action="store_true")
    ana.add_argument("--bins", type=int, default=DEFAULT_BINS)
    ana.add_argument("--absolute", action="store_true")
    ana.add_argument("--mle", action="store_true")
    ana.add_argument("--xmin-mult", default="1", help="comma-separated multiples of delta")
    ana.add_argument("--regression", action="store_true")
    ana.add_argument("--l", type=float, default=DEFAULT_REGRESSION_L)
    ana.add_argument("--delta", type=float, default=None)
    ana.add_argument("--spikes", action="store_true")
    ana.add_argument("--threshold", type=float, default=DEFAULT_SPIKE_THRESHOLD)
    ana.add_argument("--s-theta", action="store_true")
    ana.add_argument("--m", type=float, default=None)
    ana.add_argument("--theta-min", type=float, default=0.05)
    ana.add_argument("--theta-max", type=float, default=math.pi / 2 - 0.05)
    ana.add_argument("--theta-count", type=int, default=63)
    ana.add_argument("--out-dir", required=True)
    ana.set_defaults(func=cmd_analyze)

    return parser


def _iter_subparsers(parser):
    for action in parser._subparsers._group_actions if parser._subparsers else []:
        for sub in action.choices.values():
            yield sub
            if sub._subparsers:
                yield from _iter_subparsers(sub)


def _extract_config(argv):
    """Pull --config PATH out of argv; returns (the other arguments, config dict or None)."""
    pre = argparse.ArgumentParser(prog="pauliprop", add_help=False, allow_abbrev=False)
    pre.add_argument("--config")
    known, argv = pre.parse_known_args(argv)
    if known.config is None:
        return argv, None
    cfg = read_json(known.config)
    if not isinstance(cfg, dict):
        raise ValueError(f"config file {known.config} must hold a JSON object")
    return argv, cfg


def _config_value(action: argparse.Action, key: str, value):
    """A config value as its option's default, typed as the same text on the command line."""
    if action.nargs == 0:  # a flag
        if not isinstance(value, bool):
            raise ValueError(f"config key {key} takes true or false, got {value!r}")
        return value
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise ValueError(f"config key {key} takes a string or a number, got {value!r}")
    try:
        return (action.type or str)(str(value))
    except ValueError as exc:
        raise ValueError(f"config key {key}: {exc}") from None


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        argv, config = _extract_config(argv)
        if config:
            # config fills defaults; explicit flags still win
            unused = set(config)
            for sub in _iter_subparsers(parser):
                known = {a.dest: a for a in sub._actions}
                overrides = {k: _config_value(known[k], k, v)
                             for k, v in config.items() if k in known}
                if overrides:
                    sub.set_defaults(**overrides)
                    unused -= set(overrides)
                    for dest in overrides:
                        known[dest].required = False
            if unused:
                print(f"warning: no command takes config key(s) {', '.join(sorted(unused))}; ignored",
                      file=sys.stderr)
        args = parser.parse_args(argv)
        if args.command == "gen-circuit":
            out = _resolve_path(args.out)
            args.out = str(out)  # the manifest records the resolved path
            manifest = _Manifest(f"gen-circuit {args.family}", args, out.parent,
                                 name=out.stem + ".manifest.json")
        else:
            manifest = _Manifest(args.command, args, _resolve_path(args.out_dir))
        args.func(args, manifest)
        manifest.write()
        return EXIT_OK
    except (InvariantViolation, QuadratureError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except Aborted as exc:
        manifest.write(aborted=exc)
        print(f"aborted: {exc}", file=sys.stderr)
        return ABORT_EXIT[type(exc)]
    except (ValueError, OSError) as exc:  # bad input: an option, or a file unreadable or malformed
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
