import csv
import dataclasses
import inspect
import itertools
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy

import pauliprop
from pauliprop import cli
from pauliprop.analysis import MFitResult, QuadratureError, fit_m_regression, histogram
from pauliprop.cli import (
    ABORT_EXIT,
    EXIT_BUDGET,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_USAGE,
    _iter_subparsers,
    build_parser,
    main,
)
from pauliprop import engine
from pauliprop.convergence import ConvergenceConfig
from pauliprop.engine import Aborted, GateStats
from pauliprop.pauli import InvariantViolation
from pauliprop.estimator import (
    ProbeResult,
    ProbeSeries,
    RegressionFit,
    ResourcePrediction,
    predict_resources,
    run_probes,
)


@pytest.fixture
def small_circuit(tmp_path):
    path = tmp_path / "circ.json"
    code = main([
        "gen-circuit", "kicked-ising", "--topology", "grid_2x3", "--T", "3",
        "--theta-zz", str(-math.pi / 2), "--theta-x", "0.45", "--out", str(path),
    ])
    assert code == EXIT_OK
    return path


class TestGenCircuit:
    def test_kicked_ising_gate_count(self, tmp_path, capsys):
        out = tmp_path / "c.json"
        code = main([
            "gen-circuit", "kicked-ising", "--topology", "ibm_heavy_hex_127", "--T", "20",
            "--theta-zz=-1.5707963", "--theta-x", "0.3", "--out", str(out),
        ])
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["n"] == 127
        assert len(payload["gates"]) == 5420
        assert "gates=5420" in capsys.readouterr().out

    def test_random_angles_reproducible_files(self, tmp_path):
        files = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            code = main([
                "gen-circuit", "kicked-ising", "--topology", "grid_2x2", "--T", "2",
                "--theta-x", "random", "--seed", "7", "--out", str(out),
            ])
            assert code == EXIT_OK
            files.append(out.read_bytes())
        assert files[0] == files[1]

    def test_random_without_seed_usage_error(self, tmp_path):
        code = main([
            "gen-circuit", "kicked-ising", "--topology", "grid_2x2", "--T", "2",
            "--theta-x", "random", "--out", str(tmp_path / "c.json"),
        ])
        assert code == EXIT_USAGE

    def test_grid_ising(self, tmp_path):
        out = tmp_path / "g.json"
        code = main([
            "gen-circuit", "grid-ising", "--rows", "11", "--cols", "11",
            "--h", "3.044382", "--t", "0.92", "--dt", "0.04", "--out", str(out),
        ])
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["metadata"]["steps"] == 23
        assert payload["metadata"]["edges"] == 220

    def test_bad_grid_params(self, tmp_path):
        code = main([
            "gen-circuit", "grid-ising", "--rows", "2", "--cols", "2",
            "--h", "1.0", "--t", "1.0", "--dt", "0.3", "--out", str(tmp_path / "g.json"),
        ])
        assert code == EXIT_USAGE

    def test_manifest_written(self, tmp_path):
        out = tmp_path / "c.json"
        main([
            "gen-circuit", "kicked-ising", "--topology", "grid_2x2", "--T", "1",
            "--theta-x", "0.2", "--out", str(out),
        ])
        manifest = json.loads((tmp_path / "c.manifest.json").read_text())
        assert str(out) in manifest["artifacts"]
        assert manifest["engine_version"]


class TestRun:
    def test_run_writes_artifacts(self, small_circuit, tmp_path, capsys):
        out_dir = tmp_path / "run"
        code = main([
            "run", "--circuit", str(small_circuit), "--observable", "Z2",
            "--delta", "1e-4", "--out-dir", str(out_dir),
        ])
        assert code == EXIT_OK
        assert (out_dir / "trace.csv").exists()
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["gates"] == len(json.loads(small_circuit.read_text())["gates"])
        assert "expectation = " in capsys.readouterr().out

    def test_budget_abort_exit_code(self, small_circuit, tmp_path):
        out_dir = tmp_path / "aborted"
        code = main([
            "run", "--circuit", str(small_circuit), "--observable", "Z2",
            "--delta", "0", "--out-dir", str(out_dir), "--budget", "0",
        ])
        assert code == EXIT_BUDGET
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["aborted"] == "budget"

    def test_bundled_oracle_circuit_at_delta_zero(self, tmp_path, capsys):
        # expectation frozen from the dense Heisenberg matrix oracle
        from pathlib import Path

        fixture = Path(__file__).parent / "data" / "test_circuit_4q.json"
        out_dir = tmp_path / "oracle_run"
        code = main([
            "run", "--circuit", str(fixture), "--observable", "Z0",
            "--delta", "0", "--out-dir", str(out_dir),
        ])
        assert code == EXIT_OK
        summary = json.loads((out_dir / "summary.json").read_text())
        assert abs(summary["expectation"] - 0.4333369261237029) <= 1e-10

    def test_row_cap_abort_exit_code(self, small_circuit, tmp_path):
        out_dir = tmp_path / "capped"
        code = main([
            "run", "--circuit", str(small_circuit), "--observable", "Z2",
            "--delta", "0", "--out-dir", str(out_dir), "--max-rows", "4",
        ])
        assert code == EXIT_RESOURCE
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["aborted"] == "row_cap"

    def test_abort_writes_partial_expectation(self, small_circuit, tmp_path):
        out_dir = tmp_path / "capped"
        code = main([
            "run", "--circuit", str(small_circuit), "--observable", "Z2",
            "--delta", "0", "--out-dir", str(out_dir), "--max-rows", "4",
        ])
        assert code == EXIT_RESOURCE
        summary = json.loads((out_dir / "summary.json").read_text())
        # the value of a mid-circuit state is never written as the answer
        assert "expectation" not in summary
        assert math.isfinite(summary["partial_expectation"])
        assert summary["gates"] < len(json.loads(small_circuit.read_text())["gates"])
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["aborted"] == "row_cap"

    @pytest.mark.parametrize("angle", ["Infinity", "NaN"])
    def test_non_finite_angle_usage_error(self, small_circuit, tmp_path, capsys, angle):
        text = small_circuit.read_text()
        payload = json.loads(text)
        payload["gates"][4][1] = float(angle)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        code = main([
            "run", "--circuit", str(bad), "--observable", "Z2",
            "--delta", "1e-3", "--out-dir", str(tmp_path / "bad_run"),
        ])
        assert code == EXIT_USAGE
        label = payload["gates"][4][0]
        assert f"gate 5 ({label}) has non-finite angle" in capsys.readouterr().err

    def test_observable_file(self, small_circuit, tmp_path):
        obs_path = tmp_path / "obs.json"
        obs_path.write_text(json.dumps({"terms": [["Z2", 0.5], ["Z0*Z1", 0.25]]}))
        out_dir = tmp_path / "obs_run"
        code = main([
            "run", "--circuit", str(small_circuit), "--observable", str(obs_path),
            "--delta", "1e-4", "--out-dir", str(out_dir),
        ])
        assert code == EXIT_OK

    def test_snapshots_steps(self, small_circuit, tmp_path):
        out_dir = tmp_path / "snaps"
        code = main([
            "run", "--circuit", str(small_circuit), "--observable", "Z2",
            "--delta", "1e-4", "--out-dir", str(out_dir), "--snapshots", "steps",
        ])
        assert code == EXIT_OK
        per_step = json.loads(small_circuit.read_text())["metadata"]["gates_per_step"]
        snaps = sorted(p.name for p in out_dir.glob("snapshot_k*.npz"))
        # one at the end of each of the 3 Trotter steps
        assert snaps == [f"snapshot_k{j * per_step:06d}.npz" for j in (1, 2, 3)]
        assert list(out_dir.glob("snapshot_peak_k*.npz"))

    def test_stopped_run_keeps_its_snapshots(self, small_circuit, tmp_path, monkeypatch):
        # the circuit and then its inverse, so the rows peak mid-circuit
        payload = json.loads(small_circuit.read_text())
        payload["gates"] += [[label, -angle] for label, angle in reversed(payload["gates"])]
        echo = tmp_path / "echo.json"
        echo.write_text(json.dumps(payload))
        argv = ["run", "--circuit", str(echo), "--observable", "Z2", "--delta", "1e-4",
                "--snapshots", "steps"]
        full = tmp_path / "full"
        assert main([*argv, "--out-dir", str(full)]) == EXIT_OK
        k_star = json.loads((full / "summary.json").read_text())["k_star"]
        per_step = payload["metadata"]["gates_per_step"]
        done = k_star + per_step + 1  # past the peak and one more step, not the end
        assert done < len(payload["gates"])

        # a clock that advances 1 s a reading stops the run after gate `done`
        ticks = itertools.count()
        monkeypatch.setattr(engine, "time", SimpleNamespace(
            monotonic=lambda: float(next(ticks)), perf_counter_ns=lambda: 0))
        stopped = tmp_path / "stopped"
        code = main([*argv, "--budget", f"{done}.5", "--out-dir", str(stopped)])
        assert code == EXIT_BUDGET
        assert json.loads((stopped / "summary.json").read_text())["gates"] == done
        snaps = [f"snapshot_k{k:06d}.npz" for k in range(per_step, done + 1, per_step)]
        snaps.append(f"snapshot_peak_k{k_star:06d}.npz")
        assert sorted(p.name for p in stopped.glob("snapshot*.npz")) == sorted(snaps)
        for name in snaps:
            assert (stopped / name).read_bytes() == (full / name).read_bytes(), name
        listed = json.loads((stopped / "manifest.json").read_text())["artifacts"]
        assert listed == [str(stopped / name) for name in snaps] + [
            str(stopped / name) for name in ("trace.csv", "summary.json", "manifest.json")]

    @pytest.mark.parametrize("spec, strip_metadata", [("0,999", False), ("steps", True)])
    def test_snapshots_naming_no_gate_usage_error(self, tmp_path, capsys, spec, strip_metadata):
        # a 2x2 grid-ising circuit of 16 gates; without gates_per_step, 'steps' names no gate
        path = tmp_path / "grid.json"
        assert main([
            "gen-circuit", "grid-ising", "--rows", "2", "--cols", "2", "--h", "1.0",
            "--t", "0.5", "--dt", "0.25", "--out", str(path),
        ]) == EXIT_OK
        if strip_metadata:
            payload = json.loads(path.read_text())
            payload["metadata"] = {}
            path.write_text(json.dumps(payload))
        out_dir = tmp_path / "snaps"
        code = main([
            "run", "--circuit", str(path), "--observable", "Z0", "--delta", "1e-3",
            "--out-dir", str(out_dir), "--snapshots", spec,
        ])
        assert code == EXIT_USAGE
        assert "--snapshots" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_manifest_covers_all_outputs(self, small_circuit, tmp_path):
        out_dir = tmp_path / "cov"
        main([
            "run", "--circuit", str(small_circuit), "--observable", "Z2",
            "--delta", "1e-4", "--out-dir", str(out_dir), "--snapshots", "steps",
        ])
        manifest = json.loads((out_dir / "manifest.json").read_text())
        listed = {str(p) for p in manifest["artifacts"]}
        actual = {str(p) for p in out_dir.iterdir()}
        assert actual == listed

    def test_manifest_work_fields(self, small_circuit, tmp_path):
        out_dir = tmp_path / "run"
        code = main([
            "run", "--circuit", str(small_circuit), "--observable", "Z2",
            "--delta", "1e-3", "--out-dir", str(out_dir),
        ])
        assert code == EXIT_OK
        manifest = json.loads((out_dir / "manifest.json").read_text())
        summary = json.loads((out_dir / "summary.json").read_text())
        with open(out_dir / "trace.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert manifest["row_gates"] == sum(int(row["n_before"]) for row in rows)
        # 6 qubits: one word per half, 16 bytes of words and 8 of coefficient a row
        assert manifest["peak_state_bytes"] == 24 * summary["n_max"]
        assert manifest["ru_maxrss_mib"] > 0
        # every zz coupling is an exact quarter turn; the first acts on Z2
        assert 0 < manifest["absorbed_quarter_turns"] < len(rows)
        work = {"row_gates", "peak_state_bytes", "ru_maxrss_mib", "absorbed_quarter_turns"}
        assert not work & set(summary)

    def test_manifest_environment(self, small_circuit, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        out_dir = tmp_path / "env"
        main([
            "run", "--circuit", str(small_circuit), "--observable", "Z2",
            "--delta", "1e-3", "--out-dir", str(out_dir),
        ])
        env = json.loads((out_dir / "manifest.json").read_text())["environment"]
        assert env["python"] == platform.python_version()
        assert env["numpy"] == np.__version__
        assert env["scipy"] == scipy.__version__
        assert env["blas"]["name"] and env["blas"]["version"]
        assert env["threads"] == {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None}
        assert env["cpu_count"] == os.cpu_count()
        assert len(env["loadavg"]) == 3 and all(v >= 0.0 for v in env["loadavg"])
        # the deterministic data files stay free of host details
        assert "environment" not in json.loads((out_dir / "summary.json").read_text())

    def test_trace_identical_across_blas_kernels(self, tmp_path):
        # the 74-row peak is enough for two OpenBLAS dot kernels to round
        # the norm differently; every column but elapsed_ns must not care
        circuit = tmp_path / "hh.json"
        assert main([
            "gen-circuit", "kicked-ising", "--topology", "ibm_heavy_hex_127", "--T", "6",
            "--theta-x", "0.3", "--out", str(circuit),
        ]) == EXIT_OK
        src = str(Path(pauliprop.__file__).resolve().parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        tables = []
        for coretype, threads in (("Haswell", "2"), ("Sandybridge", "1")):
            out_dir = tmp_path / coretype
            env = dict(os.environ, PYTHONPATH=path, OPENBLAS_CORETYPE=coretype,
                       OPENBLAS_NUM_THREADS=threads)
            subprocess.run([
                sys.executable, "-m", "pauliprop.cli", "run", "--circuit", str(circuit),
                "--observable", "Z62", "--delta", "0.003", "--out-dir", str(out_dir),
            ], env=env, check=True, capture_output=True)
            with open(out_dir / "trace.csv", newline="") as fh:
                tables.append([{k: v for k, v in row.items() if k != "elapsed_ns"}
                               for row in csv.DictReader(fh)])
        assert len(tables[0]) == 6 * 271
        assert tables[0] == tables[1]


class TestConverge:
    def test_report_reproducible_across_reruns(self, small_circuit, tmp_path):
        payloads = []
        for name in ("c1", "c2"):
            out_dir = tmp_path / name
            code = main([
                "converge", "--circuit", str(small_circuit), "--observable", "Z2",
                "--t-cpu", "60", "--max-steps", "6", "--out-dir", str(out_dir),
            ])
            assert code == EXIT_OK
            payloads.append((out_dir / "report.json").read_bytes())
        assert len(set(payloads)) == 1

    def test_csv_axes(self, small_circuit, tmp_path):
        out_dir = tmp_path / "conv"
        main([
            "converge", "--circuit", str(small_circuit), "--observable", "Z2",
            "--t-cpu", "60", "--max-steps", "4", "--out-dir", str(out_dir),
        ])
        lines = (out_dir / "convergence.csv").read_text().strip().splitlines()
        assert lines[0] == "log10_inv_delta,estimate,runtime_s"
        first = lines[1].split(",")
        assert abs(float(first[0]) - math.log10(8.0)) < 1e-12

    def test_no_completed_step_is_budget_abort(self, small_circuit, tmp_path):
        out_dir = tmp_path / "conv"
        code = main([
            "converge", "--circuit", str(small_circuit), "--observable", "Z2",
            "--cumulative-budget", "0", "--out-dir", str(out_dir),
        ])
        assert code == EXIT_BUDGET
        report = json.loads((out_dir / "report.json").read_text())
        assert report["status"] == "budget_exhausted" and report["steps"] == []
        assert json.loads((out_dir / "manifest.json").read_text())["aborted"] == "budget"

    def test_step_cut_off_is_budget_abort(self, small_circuit, tmp_path):
        out_dir = tmp_path / "conv"
        code = main([
            "converge", "--circuit", str(small_circuit), "--observable", "Z2",
            "--t-cpu", "1e-9", "--out-dir", str(out_dir),
        ])
        assert code == EXIT_BUDGET
        report = json.loads((out_dir / "report.json").read_text())
        assert report["steps"] == [] and report["aborted_step"]["n"] == 0

    def test_budget_after_completed_step_exits_ok(self, small_circuit, tmp_path, monkeypatch):
        from pauliprop import convergence

        # the protocol's clock advances 10 s a call: step 0 completes, step 1 finds the
        # cumulative budget spent
        ticks = iter(range(0, 10_000, 10))
        monkeypatch.setattr(convergence, "time", SimpleNamespace(monotonic=lambda: next(ticks)))
        out_dir = tmp_path / "conv"
        code = main([
            "converge", "--circuit", str(small_circuit), "--observable", "Z2",
            "--cumulative-budget", "15", "--out-dir", str(out_dir),
        ])
        assert code == EXIT_OK
        report = json.loads((out_dir / "report.json").read_text())
        assert report["status"] == "budget_exhausted" and len(report["steps"]) == 1

    def test_row_cap_stop_writes_manifest(self, small_circuit, tmp_path):
        out_dir = tmp_path / "conv"
        code = main([
            "converge", "--circuit", str(small_circuit), "--observable", "Z2",
            "--max-rows", "1", "--out-dir", str(out_dir),
        ])
        assert code == EXIT_RESOURCE
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["aborted"] == "row_cap" and manifest["command"] == "converge"
        assert manifest["config"]["max_rows"] == 1
        assert not (out_dir / "report.json").exists()

    @pytest.mark.parametrize("theta_x, flags, line", [
        (math.pi / 2, [], "status = apparently_converged; estimate = 0.0 (window [0.0, 0.0, 0.0])"),
        (0.45, ["--max-steps", "2", "--eps-tol", "1e-12"],
         "status = step_limit; estimate range = (0.8420825352769852, 0.8420825352769852)"),
    ], ids=["converged", "unconverged"])
    def test_verdict_line(self, tmp_path, capsys, theta_x, flags, line):
        circuit = tmp_path / "circ.json"
        main([
            "gen-circuit", "kicked-ising", "--topology", "grid_2x3", "--T", "3",
            "--theta-zz", str(-math.pi / 2), "--theta-x", str(theta_x), "--out", str(circuit),
        ])
        capsys.readouterr()
        code = main([
            "converge", "--circuit", str(circuit), "--observable", "Z2",
            "--out-dir", str(tmp_path / "conv"), *flags,
        ])
        assert code == EXIT_OK
        assert capsys.readouterr().out.splitlines()[0] == line

    def test_invalid_config_writes_nothing(self, small_circuit, tmp_path):
        code = main([
            "converge", "--circuit", str(small_circuit), "--observable", "Z2",
            "--ell", "1", "--out-dir", str(tmp_path / "conv"),
        ])
        assert code == EXIT_USAGE
        assert not (tmp_path / "conv").exists()

    def test_row_cap_stays_out_of_report(self, small_circuit, tmp_path):
        reports = []
        for cap in ([], ["--max-rows", "1000000"]):
            out_dir = tmp_path / f"conv{len(cap)}"
            code = main([
                "converge", "--circuit", str(small_circuit), "--observable", "Z2",
                "--max-steps", "3", "--out-dir", str(out_dir), *cap,
            ])
            assert code == EXIT_OK
            reports.append((out_dir / "report.json").read_bytes())
        assert reports[0] == reports[1]


class TestEstimate:
    def test_reports_and_csv(self, small_circuit, tmp_path, capsys):
        out_dir = tmp_path / "est"
        code = main([
            "estimate", "--circuit", str(small_circuit), "--observable", "Z2",
            "--delta0", "0.05", "--count", "4", "--targets", "0.002,0.001",
            "--out-dir", str(out_dir),
        ])
        assert code == EXIT_OK
        payload = json.loads((out_dir / "prediction.json").read_text())
        assert len(payload["series"]["probes"]) == 4
        assert len(payload["prediction"]["predicted_n_max"]) == 2
        assert "predicted N_max" in capsys.readouterr().out

    def test_budget_without_two_probes_is_budget_abort(self, small_circuit, tmp_path):
        code = main([
            "estimate", "--circuit", str(small_circuit), "--observable", "Z2",
            "--delta0", "0.05", "--targets", "0.001", "--budget", "0",
            "--out-dir", str(tmp_path / "est"),
        ])
        assert code == EXIT_BUDGET

    def test_budget_abort_leaves_manifest(self, small_circuit, tmp_path):
        out_dir = tmp_path / "est"
        code = main([
            "estimate", "--circuit", str(small_circuit), "--observable", "Z2",
            "--delta0", "0.05", "--targets", "0.001", "--budget", "0",
            "--out-dir", str(out_dir),
        ])
        assert code == EXIT_BUDGET
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["aborted"] == "budget" and manifest["command"] == "estimate"
        assert manifest["artifacts"] == [str(out_dir / "manifest.json")]

    def test_row_cap_stop_leaves_manifest(self, small_circuit, tmp_path):
        out_dir = tmp_path / "est"
        code = main([
            "estimate", "--circuit", str(small_circuit), "--observable", "Z2",
            "--delta0", "0.05", "--targets", "0.001", "--max-rows", "1", "--out-dir", str(out_dir),
        ])
        assert code == EXIT_RESOURCE
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["aborted"] == "row_cap" and manifest["config"]["max_rows"] == 1
        assert not (out_dir / "prediction.json").exists()

    def test_one_probe_is_usage_error(self, small_circuit, tmp_path):
        code = main([
            "estimate", "--circuit", str(small_circuit), "--observable", "Z2",
            "--delta0", "0.05", "--count", "1", "--targets", "0.001",
            "--out-dir", str(tmp_path / "est"),
        ])
        assert code == EXIT_USAGE
        assert not (tmp_path / "est").exists()

    @pytest.mark.parametrize("option, message", [
        (["--ratio", "1.5"], "ratio must lie in (0, 1)"),
        (["--ratio", "1"], "ratio must lie in (0, 1)"),
        (["--tail-points", "1"], "--tail-points must be"),
        (["--tail-points", "-1"], "--tail-points must be"),
        (["--delta0", "0", "--targets", "-1"], "delta_0 must be positive"),
        (["--targets", "0"], "target delta 0.0 must be positive"),
        (["--ratio", "-0.5", "--count", "2", "--targets", "0.001"], "ratio must lie in (0, 1)"),
    ], ids=["ratio-1.5", "ratio-1", "tail-points-1", "tail-points-neg", "delta0-zero",
            "target-zero", "ratio-negative"])
    def test_bad_option_fails_before_probing(self, small_circuit, tmp_path, monkeypatch, capsys,
                                             option, message):
        from pauliprop import estimator

        def no_evolve(*args, **kwargs):
            raise AssertionError("a usage error must fail before any probe runs")

        monkeypatch.setattr(estimator, "evolve", no_evolve)
        code = main([
            "estimate", "--circuit", str(small_circuit), "--observable", "Z2",
            "--delta0", "0.05", "--targets", "0.0001", *option, "--out-dir", str(tmp_path / "est"),
        ])
        assert code == EXIT_USAGE
        assert message in capsys.readouterr().err
        assert not (tmp_path / "est").exists()

    def test_targets_coarser_than_probes_rejected(self, small_circuit, tmp_path):
        code = main([
            "estimate", "--circuit", str(small_circuit), "--observable", "Z2",
            "--delta0", "0.005", "--count", "3", "--targets", "0.01",
            "--out-dir", str(tmp_path / "bad"),
        ])
        assert code == EXIT_USAGE


class TestAnalyze:
    def _snapshot(self, tmp_path, rng):
        from oracles import power_law_samples
        from pauliprop import PauliSum

        mags = power_law_samples(1.6, 1e-4, 4000, rng)
        terms = []
        for i, c in enumerate(mags):
            q1, q2 = i % 30, (i * 7 + 3) % 30
            terms.append((f"Z{q1}" if q1 == q2 else f"Z{q1}*X{q2}", float(c)))
        s = PauliSum.from_terms(30, terms)
        path = tmp_path / "snap.npz"
        s.to_npz(path, gate_index=50, delta=1e-4)
        return path

    def test_histogram_and_fits(self, tmp_path, rng, capsys):
        snap = self._snapshot(tmp_path, rng)
        out_dir = tmp_path / "ana"
        code = main([
            "analyze", "--snapshot", str(snap), "--histogram", "--bins", "64",
            "--absolute", "--mle", "--xmin-mult", "1,2,3", "--delta", "1e-4",
            "--out-dir", str(out_dir),
        ])
        assert code == EXIT_OK
        assert (out_dir / "histogram.csv").exists()
        fits = json.loads((out_dir / "fits.json").read_text())
        assert len(fits) == 3
        assert all(f["method"] == "mle" for f in fits)
        out = capsys.readouterr().out
        assert out.count("mle (x_min=") == 3

    def test_default_bins_is_2048(self, tmp_path, rng):
        snap = self._snapshot(tmp_path, rng)
        out_dir = tmp_path / "ana2"
        main(["analyze", "--snapshot", str(snap), "--histogram", "--out-dir", str(out_dir)])
        lines = (out_dir / "histogram.csv").read_text().strip().splitlines()
        assert len(lines) == 2049

    def test_spikes_from_trace(self, tmp_path):
        trace_csv = tmp_path / "trace.csv"
        trace_csv.write_text(
            "k,theta,phi,eta,n_before,n_after,truncated,norm,elapsed_ns\n"
            "1,0.3,0.5,0.1,10,12,0,1.0,5\n"
            "2,0.96,0.7,0.368,12,12,1,0.99,5\n"
        )
        out_dir = tmp_path / "spk"
        code = main([
            "analyze", "--trace", str(trace_csv), "--spikes", "--out-dir", str(out_dir),
        ])
        assert code == EXIT_OK
        spikes = json.loads((out_dir / "spikes.json").read_text())
        assert spikes == [{"k": 2, "eta": 0.368, "theta": 0.96}]

    def test_spikes_skip_absorbed_quarter_turns(self, small_circuit, tmp_path):
        # a whole number of quarter turns writes an empty eta cell, which reads back
        # as not measured: at threshold 0 every other gate is a spike
        run_dir, out_dir = tmp_path / "run", tmp_path / "spk"
        assert main(["run", "--circuit", str(small_circuit), "--observable", "Z2",
                     "--delta", "1e-3", "--out-dir", str(run_dir)]) == EXIT_OK
        with open(run_dir / "trace.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        absorbed = {int(row["k"]) for row in rows if row["eta"] == ""}
        assert absorbed
        code = main(["analyze", "--trace", str(run_dir / "trace.csv"), "--spikes",
                     "--threshold", "0", "--out-dir", str(out_dir)])
        assert code == EXIT_OK
        spikes = json.loads((out_dir / "spikes.json").read_text())
        assert {s["k"] for s in spikes} == {int(row["k"]) for row in rows} - absorbed

    def test_s_theta_sweep_symmetric_csv(self, tmp_path):
        out_dir = tmp_path / "sth"
        code = main([
            "analyze", "--s-theta", "--m", "1.7", "--delta", "1e-3",
            "--theta-min", "0.3853981633974483", "--theta-max", "1.1853981633974483",
            "--theta-count", "5", "--out-dir", str(out_dir),
        ])
        assert code == EXIT_OK
        rows = (out_dir / "s_theta.csv").read_text().strip().splitlines()[1:]
        values = [float(r.split(",")[1]) for r in rows]
        assert abs(values[0] - values[-1]) < 1e-8  # symmetric grid about pi/4

    def test_nothing_to_do_usage(self, tmp_path):
        assert main(["analyze", "--out-dir", str(tmp_path / "x")]) == EXIT_USAGE
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("flags, message", [
        (["--histogram", "--mle"], "--mle requires --delta"),
        (["--histogram", "--regression"], "--regression requires --delta"),
        (["--histogram", "--s-theta", "--delta", "1e-4"], "--s-theta requires --m"),
        (["--histogram", "--trace", "TRACE"], "--spikes"),
        (["--histogram", "--mle", "--delta", "0"], "positive --delta"),
        (["--histogram", "--mle", "--delta", "1e-4", "--xmin-mult", "-1"], "--xmin-mult"),
        (["--histogram", "--regression", "--delta", "-0.01"], "positive --delta"),
        (["--histogram", "--mle", "--delta", "1e-4", "--xmin-mult", ""], "--xmin-mult"),
        (["--histogram", "--mle", "--delta", "1e-4", "--xmin-mult", ","], "--xmin-mult"),
        (["--histogram", "--spikes"], "--trace"),
        (["--histogram", "--s-theta", "--m", "1.5", "--delta", "0.01", "--theta-min", "0"],
         "theta must lie in"),
        (["--histogram", "--s-theta", "--m", "-1", "--delta", "0.01"], "m must be positive"),
        (["--histogram", "--regression", "--delta", "100"], "populated bins"),
        (["--s-theta", "--m", "1.5", "--delta", "1e-3"], "a --snapshot needs"),
        (["--histogram", "--s-theta", "--m", "1.5", "--delta", "1e-3", "--theta-count", "0"],
         "--theta-count must be at least 1, got 0"),
        (["--histogram", "--s-theta", "--m", "inf", "--delta", "1e-3"],
         "m must be positive and finite, got inf"),
        (["--histogram", "--s-theta", "--m", "1.5", "--delta", "inf"],
         "delta must be positive and finite, got inf"),
        (["--histogram", "--trace", "TRACE", "--spikes", "--threshold", "nan"],
         "threshold must be a number, got nan"),
        (["--histogram", "--regression", "--delta", "1e-3", "--l", "nan"],
         "l must be finite and >= 1, got nan"),
        (["--histogram", "--regression", "--delta", "1e-3", "--l", "inf"],
         "l must be finite and >= 1, got inf"),
        (["--histogram", "--regression", "--delta", "inf"],
         "delta must be positive and finite, got inf"),
    ], ids=["mle-without-delta", "regression-without-delta", "s-theta-without-m",
            "trace-without-spikes", "mle-delta-zero", "xmin-mult-negative",
            "regression-delta-negative", "xmin-mult-empty", "xmin-mult-comma",
            "spikes-without-trace", "s-theta-theta-min-zero", "s-theta-m-negative",
            "regression-no-bins", "snapshot-without-analysis", "s-theta-count-zero",
            "s-theta-m-inf", "s-theta-delta-inf", "spikes-threshold-nan", "regression-l-nan",
            "regression-l-inf", "regression-delta-inf"])
    def test_usage_error_writes_nothing(self, tmp_path, rng, capsys, flags, message):
        # nearly every case asks for a histogram, which must not be written before the error
        trace_csv = tmp_path / "trace.csv"
        trace_csv.write_text("k,theta,phi,eta,n_before,n_after,truncated,norm,elapsed_ns\n")
        snapshot = ["--snapshot", str(self._snapshot(tmp_path, rng))]
        flags = [str(trace_csv) if f == "TRACE" else f for f in flags]
        out_dir = tmp_path / "ana"
        assert main(["analyze", *snapshot, *flags, "--out-dir", str(out_dir)]) == EXIT_USAGE
        assert message in capsys.readouterr().err
        assert not out_dir.exists()

    def test_trace_missing_column_writes_nothing(self, tmp_path, rng, capsys):
        # the histogram would come first; the trace is read before it
        trace_csv = tmp_path / "trace.csv"
        trace_csv.write_text("k,theta\n1,0.3\n")
        out_dir = tmp_path / "ana"
        code = main(["analyze", "--snapshot", str(self._snapshot(tmp_path, rng)), "--histogram",
                     "--trace", str(trace_csv), "--spikes", "--out-dir", str(out_dir)])
        assert code == EXIT_USAGE
        assert "phi" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("flags, text, message", [
        (["--snapshot", "BAD", "--n", "3", "--histogram"], "", "bad.csv: the file is empty"),
        (["--snapshot", "BAD", "--n", "3", "--histogram"], "pauli_label\nZ0\n",
         "bad.csv: no column(s) coefficient"),
        (["--trace", "BAD", "--spikes"], "", "bad.csv: the file is empty"),
        (["--trace", "BAD", "--spikes"],
         "k,theta,phi,eta,n_before,n_after,truncated,norm,elapsed_ns\n1,0.3,0.5,0.1\n",
         "bad.csv: row 1 has 4 cells for 9 columns"),
    ], ids=["snapshot-csv-empty", "snapshot-csv-without-column", "trace-empty",
            "trace-row-short"])
    def test_malformed_csv_writes_nothing(self, tmp_path, capsys, flags, text, message):
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        out_dir = tmp_path / "ana"
        argv = ["analyze", *(str(bad) if f == "BAD" else f for f in flags), "--out-dir", str(out_dir)]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not out_dir.exists()

    def test_snapshot_csv_columns_in_any_order(self, tmp_path):
        snap = tmp_path / "snap.csv"
        snap.write_text("coefficient,pauli_label\n0.5,Z0\n-0.25,X1*Z2\n")
        out_dir = tmp_path / "ana"
        assert main(["analyze", "--snapshot", str(snap), "--n", "3", "--histogram", "--bins", "2",
                     "--out-dir", str(out_dir)]) == EXIT_OK
        lines = (out_dir / "histogram.csv").read_text().splitlines()
        assert lines[1:] == ["-0.25,0.125,1,1.3333333333333333", "0.125,0.5,1,1.3333333333333333"]

    def test_corrupt_snapshot_writes_nothing(self, tmp_path, rng):
        snap = self._snapshot(tmp_path, rng)
        with np.load(snap) as data:
            bits, coeffs = data["bits"], data["coeffs"].copy()
        coeffs[0] = 0.0
        np.savez_compressed(snap, n=30, bits=bits, coeffs=coeffs)
        out_dir = tmp_path / "ana"
        code = main(["analyze", "--snapshot", str(snap), "--histogram", "--out-dir", str(out_dir)])
        assert code == EXIT_USAGE
        assert not out_dir.exists()


class TestLifecycle:
    def test_every_limit_has_an_exit_code(self):
        assert set(ABORT_EXIT) == set(Aborted.__subclasses__())

    @pytest.mark.parametrize("command", ["gen-circuit", "estimate", "converge", "analyze"])
    def test_manifest_covers_all_outputs(self, small_circuit, tmp_path, command):
        out_dir = tmp_path / command
        inputs = ["--circuit", str(small_circuit), "--observable", "Z2"]
        common = [*inputs, "--out-dir", str(out_dir)]
        if command == "gen-circuit":
            argv = ["gen-circuit", "kicked-ising", "--topology", "grid_2x2", "--T", "1",
                    "--out", str(out_dir / "c.json")]
        elif command == "estimate":
            argv = ["estimate", *common, "--delta0", "0.05", "--count", "3", "--targets", "0.001"]
        elif command == "converge":
            argv = ["converge", *common, "--max-steps", "3"]
        else:  # every kind of output, from one run's peak snapshot and trace
            run_dir = tmp_path / "run"
            assert main(["run", *inputs, "--delta", "1e-3", "--snapshots", "steps",
                         "--out-dir", str(run_dir)]) == EXIT_OK
            (peak,) = run_dir.glob("snapshot_peak_k*.npz")
            argv = ["analyze", "--snapshot", str(peak), "--histogram", "--mle",
                    "--delta", "1e-3", "--trace", str(run_dir / "trace.csv"), "--spikes",
                    "--s-theta", "--m", "1.5", "--out-dir", str(out_dir)]
        assert main(argv) == EXIT_OK
        manifest_path = out_dir / ("c.manifest.json" if command == "gen-circuit" else "manifest.json")
        listed = json.loads(manifest_path.read_text())["artifacts"]
        assert sorted(listed) == sorted(str(p) for p in out_dir.iterdir())
        assert listed[-1] == str(manifest_path)


    @pytest.mark.parametrize("flag", ["--circuit", "--snapshot", "--trace", "--observable"])
    def test_missing_input_is_usage_error(self, small_circuit, tmp_path, capsys, flag):
        suffix = {"--snapshot": ".npz", "--trace": ".csv"}.get(flag, ".json")
        missing = str(tmp_path / f"nope{suffix}")
        argv = {
            "--circuit": ["run", "--circuit", missing, "--observable", "Z2", "--delta", "1e-3"],
            "--snapshot": ["analyze", "--snapshot", missing, "--histogram"],
            "--trace": ["analyze", "--trace", missing, "--spikes"],
            # a .json spec is a file, never a Pauli label
            "--observable": ["run", "--circuit", str(small_circuit), "--observable", missing,
                             "--delta", "1e-3"],
        }[flag]
        out_dir = tmp_path / "out"
        assert main([*argv, "--out-dir", str(out_dir)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"No such file or directory: '{missing}'" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("kind, message", [
        ("circuit-without-n", "integer n"),
        ("circuit-gates-number", "integer n"),
        ("circuit-metadata-list", "metadata object"),
        ("circuit-steps-null", "gates_per_step"),
        ("observable-without-terms", "[label, coeff] terms"),
        ("observable-number", "[label, coeff] terms"),
        ("snapshot-without-arrays", "lacks the array(s) coeffs, n"),
        ("snapshot-empty", "bad.npz is not a readable .npz archive"),
        ("snapshot-truncated", "bad.npz is not a readable .npz archive"),
        ("snapshot-text", "bad.npz is not a readable .npz archive"),
        ("circuit-truncated", "bad.json is not JSON"),
        ("observable-truncated", "bad.json is not JSON"),
        ("snapshot-n-vector", "bad.npz has n = array([1, 2])"),
        ("snapshot-n-negative", "bad.npz has n = array(-5)"),
        ("observable-nan", "term Z0 has the coefficient nan"),
        ("observable-inf", "term Z0 has the coefficient inf"),
        ("snapshot-nan", "bad.npz holds a coefficient that is not a finite number"),
        ("snapshot-inf", "bad.npz holds a coefficient that is not a finite number"),
    ], ids=["circuit-without-n", "circuit-gates-number", "circuit-metadata-list",
            "circuit-steps-null", "observable-without-terms", "observable-number",
            "snapshot-without-arrays", "snapshot-empty", "snapshot-truncated", "snapshot-text",
            "circuit-truncated", "observable-truncated", "snapshot-n-vector",
            "snapshot-n-negative", "observable-nan", "observable-inf", "snapshot-nan",
            "snapshot-inf"])
    def test_malformed_input_is_usage_error(self, small_circuit, tmp_path, capsys, kind, message):
        circuit = json.loads(small_circuit.read_text())
        zeros, ones = np.zeros((1, 2), dtype=np.uint64), np.ones(1)
        good_npz = tmp_path / "good.npz"
        np.savez_compressed(good_npz, n=2, bits=zeros, coeffs=ones)
        text = {  # files no parser can read
            "snapshot-empty": b"",
            "snapshot-truncated": good_npz.read_bytes()[:-20],
            "snapshot-text": b"Z0 1.0\n",
            "circuit-truncated": small_circuit.read_bytes()[:63],
            "observable-truncated": b'{"terms": [["Z2", 1.0]',
        }.get(kind)
        arrays = {  # archives with bad contents
            "snapshot-without-arrays": {"bits": zeros},
            "snapshot-n-vector": {"n": [1, 2], "bits": zeros, "coeffs": ones},
            "snapshot-n-negative": {"n": -5, "bits": zeros, "coeffs": ones},
            "snapshot-nan": {"n": 2, "bits": zeros, "coeffs": [math.nan]},
            "snapshot-inf": {"n": 2, "bits": zeros, "coeffs": [-math.inf]},
        }.get(kind)
        payload = {
            "circuit-without-n": {k: v for k, v in circuit.items() if k != "n"},
            "circuit-gates-number": {**circuit, "gates": 5},
            "circuit-metadata-list": {**circuit, "metadata": [1]},
            "circuit-steps-null": {**circuit, "metadata": {"gates_per_step": None}},
            "observable-without-terms": {"coeffs": [1.0]},
            "observable-number": 5,
            # json writes and reads NaN and Infinity
            "observable-nan": [["Z0", math.nan], ["X1", 0.5]],
            "observable-inf": [["Z0", math.inf], ["X1", 0.5]],
        }.get(kind)
        on_snapshot = kind.startswith("snapshot")
        bad = tmp_path / ("bad.npz" if on_snapshot else "bad.json")
        if text is not None:
            bad.write_bytes(text)
        elif arrays is not None:
            np.savez_compressed(bad, **arrays)
        else:
            bad.write_text(json.dumps(payload))
        if on_snapshot:
            argv = ["analyze", "--snapshot", str(bad), "--histogram"]
        else:
            on_circuit = kind.startswith("circuit")
            argv = ["run", "--circuit", str(bad if on_circuit else small_circuit),
                    "--observable", "Z2" if on_circuit else str(bad), "--delta", "1e-3",
                    "--snapshots", "steps"]
        out_dir = tmp_path / "out"
        assert main([*argv, "--out-dir", str(out_dir)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("argv, value", [
        (["run", "--delta", "nan"], "got nan"),
        (["run", "--delta", "1e-3", "--budget", "nan"], "got nan"),
        (["run", "--delta", "1e-3", "--max-rows", "-5"], "got -5"),
        (["estimate", "--targets", "1e-4", "--budget", "nan"], "got nan"),
        (["converge", "--delta0", "nan"], "got nan"),
        (["converge", "--t-cpu", "nan"], "got nan"),
        (["converge", "--eps-tol", "nan"], "got nan"),
        (["converge", "--cumulative-budget", "nan"], "got nan"),
        (["run", "--delta", "inf"], "got inf"),
        (["run", "--delta", "1e-3", "--budget", "inf"], "got inf"),
        (["estimate", "--targets", "1e-4", "--delta0", "inf"], "got inf"),
        (["estimate", "--targets", "1e-4", "--budget", "inf"], "got inf"),
        (["converge", "--delta0", "inf"], "got inf"),
        (["converge", "--t-cpu", "inf"], "got inf"),
        (["converge", "--eps-tol", "inf"], "got inf"),
        (["converge", "--cumulative-budget", "inf"], "got inf"),
    ], ids=["run-delta-nan", "run-budget-nan", "run-max-rows-negative", "estimate-budget-nan",
            "converge-delta0-nan", "converge-t-cpu-nan", "converge-eps-tol-nan",
            "converge-cumulative-budget-nan", "run-delta-inf", "run-budget-inf",
            "estimate-delta0-inf", "estimate-budget-inf", "converge-delta0-inf",
            "converge-t-cpu-inf", "converge-eps-tol-inf", "converge-cumulative-budget-inf"])
    def test_limit_that_is_not_a_number_is_usage_error(self, small_circuit, tmp_path, capsys,
                                                        argv, value):
        # the small cap bounds the run should a NaN limit ever pass unchecked
        out_dir = tmp_path / "out"
        code = main([*argv[:1], "--circuit", str(small_circuit), "--observable", "Z2",
                     "--max-rows", "1000", *argv[1:], "--out-dir", str(out_dir)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and value in err
        assert not out_dir.exists()

    def test_run_invariant_violation_exits_numerical(self, small_circuit, tmp_path, capsys,
                                                      monkeypatch):
        def corrupt(*args, **kwargs):
            raise InvariantViolation("state is corrupt")

        monkeypatch.setattr(cli, "evolve", corrupt)
        out_dir = tmp_path / "out"
        code = main(["run", "--circuit", str(small_circuit), "--observable", "Z2",
                     "--delta", "1e-3", "--out-dir", str(out_dir)])
        assert code == EXIT_NUMERICAL
        assert capsys.readouterr().err.startswith("numerical error: state is corrupt")
        assert not (out_dir / "manifest.json").exists()

    def test_analyze_quadrature_error_exits_numerical(self, tmp_path, capsys, monkeypatch):
        def unresolved(*args, **kwargs):
            raise QuadratureError("tolerance not reached")

        monkeypatch.setattr(cli, "s_theta_sweep", unresolved)
        out_dir = tmp_path / "out"
        code = main(["analyze", "--s-theta", "--m", "1.5", "--delta", "1e-3",
                     "--out-dir", str(out_dir)])
        assert code == EXIT_NUMERICAL
        assert capsys.readouterr().err.startswith("numerical error: tolerance not reached")
        assert not out_dir.exists()


@pytest.mark.parametrize("command, flag, function", [
    ("estimate", "count", run_probes),
    ("estimate", "tail_points", predict_resources),
    ("analyze", "bins", histogram),
    ("analyze", "l", fit_m_regression),
], ids=lambda v: v if isinstance(v, str) else v.__name__)
def test_flag_default_is_library_default(command, flag, function):
    parser = next(p for p in _iter_subparsers(build_parser()) if p.prog.endswith(command))
    assert parser.get_default(flag) == inspect.signature(function).parameters[flag].default


def test_artifact_keys_are_record_fields(small_circuit, tmp_path):
    # each record is written under its own field names, so a new field is a new key
    def fields(record):
        return [f.name for f in dataclasses.fields(record)]

    inputs = ["--circuit", str(small_circuit), "--observable", "Z2"]
    dirs = {name: tmp_path / name for name in ("est", "conv", "run", "ana")}
    assert main(["estimate", *inputs, "--delta0", "0.05", "--count", "4", "--targets", "0.001",
                 "--out-dir", str(dirs["est"])]) == EXIT_OK
    assert main(["converge", *inputs, "--max-steps", "3", "--out-dir", str(dirs["conv"])]) == EXIT_OK
    assert main(["run", *inputs, "--delta", "1e-3", "--snapshots", "steps",
                 "--out-dir", str(dirs["run"])]) == EXIT_OK
    (peak,) = dirs["run"].glob("snapshot_peak_k*.npz")
    assert main(["analyze", "--snapshot", str(peak), "--mle", "--regression", "--delta", "1e-2",
                 "--out-dir", str(dirs["ana"])]) == EXIT_OK

    prediction = json.loads((dirs["est"] / "prediction.json").read_text())
    series, predicted = prediction["series"], prediction["prediction"]
    assert sorted(series) == sorted(fields(ProbeSeries))
    for probe in series["probes"]:
        assert sorted(probe) == sorted(fields(ProbeResult))
    assert sorted(predicted) == sorted(fields(ResourcePrediction))
    for fit in ("nmax_fit", "runtime_fit"):
        assert sorted(predicted[fit]) == sorted(fields(RegressionFit))
    fits = json.loads((dirs["ana"] / "fits.json").read_text())
    assert [f["method"] for f in fits] == ["mle", "regression"]
    for fit in fits:
        assert sorted(fit) == sorted(fields(MFitResult))
    config = json.loads((dirs["conv"] / "report.json").read_text())["config"]
    assert sorted(config) == sorted(fields(ConvergenceConfig))
    with open(dirs["run"] / "trace.csv", newline="") as fh:
        assert next(csv.reader(fh)) == fields(GateStats)


class TestConfigPrecedence:
    def test_config_fills_defaults_flags_win(self, small_circuit, tmp_path):
        cfg = tmp_path / "cfg.json"
        # "workers" is a retired option; old config files that carry it still run
        cfg.write_text(json.dumps({"delta": 0.25, "max_steps": 2, "workers": 4}))
        out_a = tmp_path / "a"
        code = main([
            "run", "--circuit", str(small_circuit), "--observable", "Z2",
            "--config", str(cfg), "--out-dir", str(out_a),
        ])
        # --delta is required=True, so config alone cannot satisfy it unless
        # set_defaults fills it; verify that it did
        assert code == EXIT_OK
        assert json.loads((out_a / "summary.json").read_text())["delta"] == 0.25
        out_b = tmp_path / "b"
        code = main([
            "run", "--circuit", str(small_circuit), "--observable", "Z2",
            "--config", str(cfg), "--delta", "0.5", "--out-dir", str(out_b),
        ])
        assert code == EXIT_OK
        assert json.loads((out_b / "summary.json").read_text())["delta"] == 0.5

    def test_unknown_config_key_named_on_stderr(self, small_circuit, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"delta": 0.25, "detla": 0.5, "workers": 4}))
        code = main([
            "run", "--circuit", str(small_circuit), "--observable", "Z2",
            "--config", str(cfg), "--out-dir", str(tmp_path / "run"),
        ])
        assert code == EXIT_OK
        err = capsys.readouterr().err
        assert "detla, workers" in err
        assert "delta," not in err

    @pytest.mark.parametrize("command, config, key", [
        (["run", "--delta", "1e-3"], {"delta": True}, "delta"),
        (["run", "--delta", "1e-3"], {"delta": [0.01]}, "delta"),
        (["run", "--delta", "1e-3"], {"delta": None}, "delta"),
        (["run", "--delta", "1e-3"], {"delta": "abc"}, "delta"),
        (["estimate", "--targets", "1e-4"], {"count": 2.5}, "count"),
        (["estimate", "--targets", "1e-4"], {"max_rows": "-"}, "max_rows"),
        (["analyze", "--s-theta", "--m", "1.5", "--delta", "1e-3"], {"histogram": 1}, "histogram"),
    ], ids=["delta-true", "delta-list", "delta-null", "delta-text", "count-float",
            "max-rows-text", "flag-number"])
    def test_config_value_typed_like_flag(self, small_circuit, tmp_path, capsys, command,
                                          config, key):
        # a value argparse would reject on the command line, or that no text spells
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        inputs = [] if command[0] == "analyze" else ["--circuit", str(small_circuit),
                                                     "--observable", "Z2"]
        out_dir = tmp_path / "out"
        code = main([*command[:1], *inputs, *command[1:], "--config", str(cfg),
                     "--out-dir", str(out_dir)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: config key " + key)
        assert not out_dir.exists()

    def test_config_values_take_their_option_type(self, small_circuit, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"delta": "0.25", "max_rows": "1000"}))
        out_dir = tmp_path / "run"
        assert main(["run", "--circuit", str(small_circuit), "--observable", "Z2",
                     "--config", str(cfg), "--out-dir", str(out_dir)]) == EXIT_OK
        config = json.loads((out_dir / "manifest.json").read_text())["config"]
        assert config["delta"] == 0.25 and config["max_rows"] == 1000

    def test_missing_config_file(self, tmp_path):
        code = main(["run", "--config", str(tmp_path / "nope.json"),
                     "--circuit", "x", "--observable", "Z0", "--delta", "1",
                     "--out-dir", str(tmp_path)])
        assert code == EXIT_USAGE


class TestImport:
    def test_cli_import_skips_quadrature(self):
        # scipy.integrate is loaded by the integrals that use it, not by every command
        src = str(Path(pauliprop.__file__).resolve().parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        code = "import pauliprop.cli, sys; assert 'scipy.integrate' not in sys.modules"
        subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                       check=True, capture_output=True)


class TestDataDirEnv:
    def test_relative_out_dir_under_env(self, small_circuit, tmp_path, monkeypatch):
        monkeypatch.setenv("PAULIPROP_DATA_DIR", str(tmp_path))
        code = main([
            "run", "--circuit", str(small_circuit), "--observable", "Z2",
            "--delta", "1e-3", "--out-dir", "rel_out",
        ])
        assert code == EXIT_OK
        assert (tmp_path / "rel_out" / "summary.json").exists()
