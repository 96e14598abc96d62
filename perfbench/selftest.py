"""Self-test of the benchmark, at coarse delta (about 15 s).

Run from the root of a checkout:

    python3 perfbench/selftest.py

It checks that every metric named in BENCHMARK.json is printed with its
unit in both modes, that a corrupted reference makes every execution count
as failed, that the traced layer times sum to no more than
``engine.evolve.s``, and that a directory holding only the benchmark exits
nonzero without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

from tracer import KERNEL_FNS

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SCRATCH = ROOT / ".bench_work" / f"selftest-{os.getpid()}"
COARSE = ["--workload", "heavy-hex-kicked", "--delta-exp", "7", "--seconds", "1"]


class SelfTestFailure(AssertionError):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SelfTestFailure(message)


def bench(*extra, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(HERE / "run.py"), *COARSE, *extra], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def parse(proc) -> tuple[dict, list[str]]:
    expect(proc.returncode == 0, f"benchmark exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def expect_named(result: dict, lines: list[str], metrics: list[dict]) -> None:
    for m in metrics:
        name, unit = m["name"], m["unit"]
        expect(result["metrics"].get(name, {}).get("unit") == unit, f"{name} missing from result")
        printed = [line.split() for line in lines if line.split()[:1] == [name]]
        expect(len(printed) == 1 and printed[0][2] == unit, f"{name} not printed with unit {unit}")


def main() -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    try:
        result, lines = parse(bench("--trace", "0"))
        expect(result["correct"] and result["failed"] == 0, f"untraced run failed: {result}")
        expect_named(result, lines, spec["end_to_end"])

        result, lines = parse(bench("--trace", "1"))
        expect(result["correct"] and result["failed"] == 0, f"traced run failed: {result}")
        expect_named(result, lines, spec["per_layer"])
        value = {k: v["value"] for k, v in result["metrics"].items()}
        kernels = sum(value[f"kernels.{fn}.s"] for fn in KERNEL_FNS)
        evolve = value["engine.evolve.s"]
        expect(kernels <= evolve, f"kernel self times {kernels} exceed engine.evolve.s {evolve}")
        expect(abs(kernels + value["engine.self_s"] - evolve) <= 1e-6 * evolve,
               "kernel and engine self times do not add up to engine.evolve.s")

        SCRATCH.mkdir(parents=True)
        with open(HERE / "references.json") as fh:
            refs = json.load(fh)
        refs["heavy-hex-kicked@2^-7"]["exact"]["n_max"] += 1
        corrupted = SCRATCH / "references.json"
        with open(corrupted, "w") as fh:
            json.dump(refs, fh)
        result, _ = parse(bench("--trace", "0", "--references", str(corrupted)))
        expect(not result["correct"] and result["failed"] >= 1 and not result["metrics"],
               f"a corrupted reference did not fail every execution: {result}")

        bare = SCRATCH / "bare"
        bare.mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("--trace", "0", cwd=bare)
        expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
               "a directory without the source did not exit nonzero without a result")
    except SelfTestFailure as exc:
        print(f"selftest FAILED: {exc}")
        return 1
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
        if not any(SCRATCH.parent.iterdir()):
            SCRATCH.parent.rmdir()
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
