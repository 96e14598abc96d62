import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# The benchmark's tracer wraps package names where their callers look them
# up; a rename that drops one makes install() raise.  It runs in its own
# process because install() patches the modules for good.  With two kicks
# the evolve calls every kernel: the second X0 meets Z0 and its partner Y0,
# so the partner search runs.
_INSTALL = """
import sys
sys.path[:0] = ["src", "perfbench"]
from tracer import Tracer
import pauliprop
tracer = Tracer()
tracer.install(with_cli=True)
circuit = pauliprop.kicked_ising(
    pauliprop.Topology.grid(1, 2), T=2, theta_zz=0.3, theta_x_spec=pauliprop.FixedAngle(0.2)
)
pauliprop.evolve(circuit, pauliprop.PauliSum.from_terms(2, [("Z0", 1.0)]), 0.0)
print(" ".join(sorted({span[2] for span in tracer.spans})))
"""


def test_tracer_installs_on_the_package():
    done = subprocess.run(
        [sys.executable, "-c", _INSTALL], cwd=ROOT, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    names = set(done.stdout.split())
    assert {"circuits.build", "sums.from_terms", "engine.evolve"} <= names
    # a kernel call that moves into the engine would leave its span out of
    # the trace and its time in engine.self_s
    kernels = ("anti_mask", "find_rows", "branch_signs", "lower_bound", "sort_order", "pack_keys")
    assert {f"kernels.{fn}" for fn in kernels} <= names


# The pipeline workload's per-layer metrics come from the names the tracer
# patches on pauliprop.cli; a command that stops calling them through those
# names would zero the metrics without failing any execution.
_CLI_PIPELINE = """
import sys
sys.path[:0] = ["src", "perfbench"]
from tracer import Tracer
import pauliprop
from pauliprop import cli
tracer = Tracer()
tracer.install(with_cli=True)
out = sys.argv[1]
inputs = ["--circuit", out + "/c.json", "--observable", "Z0"]
pauliprop.PauliSum.from_terms(2, [("Z0", 0.5), ("X1", 0.25), ("Z0*X1", 0.125)]).to_npz(
    out + "/snap.npz", gate_index=0, delta=0.1
)
for argv in (
    ["gen-circuit", "kicked-ising", "--topology", "grid_1x2", "--T", "2", "--out", out + "/c.json"],
    ["estimate", *inputs, "--delta0", "0.05", "--count", "2", "--targets", "0.01",
     "--out-dir", out + "/est"],
    ["converge", *inputs, "--max-steps", "3", "--out-dir", out + "/conv"],
    ["analyze", "--snapshot", out + "/snap.npz", "--histogram", "--mle", "--delta", "0.1",
     "--out-dir", out + "/ana"],
):
    assert cli.main(argv) == 0, argv
print(" ".join(sorted({span[2] for span in tracer.spans})))
"""


def test_tracer_sees_the_cli_layers(tmp_path):
    done = subprocess.run(
        [sys.executable, "-c", _CLI_PIPELINE, str(tmp_path)], cwd=ROOT, capture_output=True,
        text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    names = set(done.stdout.split())
    assert {
        "estimator.run_probes", "estimator.predict_resources", "convergence.run_protocol",
        "analysis.histogram", "analysis.fit_m_mle",
    } <= names
