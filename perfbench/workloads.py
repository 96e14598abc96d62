"""Workload inputs and label-free result fingerprints.

The seed never changes the physics of a workload, only the names of its
qubits: every seed draws a permutation of the qubit indices and applies it
to the circuit's gates (order kept) and to the observable.  Relabelling
leaves every row count, truncation and coefficient unchanged, so the cost
of a run does not depend on the seed, while the program still sees inputs
it has not seen before.  Fingerprints map the final state back to the
original labels, so one committed reference holds for every seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import re

import numpy as np

DEFAULT_SEED = 7

WORKLOADS = {
    "heavy-hex-kicked": {
        "kind": "evolve", "family": "kicked-ising", "n": 127, "qubit": 62, "delta_exp": 15,
        "why": "the paper's 127-qubit heavy-hex kicked Ising at delta 2^-15: ~50k rows, "
               "2880 Clifford quarter turns, 3559 idle full scans",
    },
    # Not in BENCHMARK.json: the run budget of the gated benchmark holds two workloads
    # long enough to be steady on a noisy two-core host.  Run it by name.
    "grid-tfim": {
        "kind": "evolve", "family": "grid-tfim", "n": 121, "qubit": 60, "delta_exp": 11,
        "why": "11x11 grid TFIM at delta 2^-11: no Clifford gate and the largest scan share, "
               "so a Clifford-only change should leave it unchanged",
    },
    "random-kicks-pipeline": {
        "kind": "pipeline", "n": 127, "qubit": 62, "delta_exp": 10,
        "why": "the CLI path gen-circuit, estimate, converge, run, analyze with random angles: "
               "decision protocols, file writes and per-gate fixed cost",
    },
}

PIPELINE_CIRCUIT_SEED = 7

_LETTER = re.compile(r"([IXYZ])(\d+)")


def permutation(seed: int, n: int) -> np.ndarray:
    """perm[q] is the new label of original qubit q."""
    return np.random.default_rng(seed).permutation(n)


def relabel_label(label: str, perm) -> str:
    return _LETTER.sub(lambda m: f"{m.group(1)}{perm[int(m.group(2))]}", label)


def build_circuit(pp, spec: dict):
    """The workload circuit in original labels, through the library API."""
    if spec["family"] == "kicked-ising":
        topo = pp.builtin_topology("ibm_heavy_hex_127")
        return pp.kicked_ising(topo, T=20, theta_zz=-math.pi / 2, theta_x_spec=pp.FixedAngle(0.3))
    return pp.tfim_trotter_grid(rows=11, cols=11, h=3.044382, t_total=0.92, dt=0.04)


def relabel_circuit(pp, circuit, perm):
    """Same gate sequence, qubits renamed; shared generators stay shared."""
    renamed = {}
    gates = []
    for sigma, theta in circuit.gates:
        new = renamed.get(id(sigma))
        if new is None:
            new = pp.PauliString.from_label(relabel_label(sigma.to_sparse_label(), perm), circuit.n)
            renamed[id(sigma)] = new
        gates.append((new, theta))
    return pp.Circuit(n=circuit.n, gates=tuple(gates), metadata=circuit.metadata)


def relabel_circuit_file(path, perm) -> None:
    """Rename qubits in a circuit JSON written by ``gen-circuit``."""
    with open(path) as fh:
        payload = json.load(fh)
    payload["gates"] = [[relabel_label(label, perm), theta] for label, theta in payload["gates"]]
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def original_labels(bits: np.ndarray, coeffs: np.ndarray, perm, n: int):
    """Map packed rows back to the original qubit labels, canonical order."""
    rows, width = bits.shape
    w = width // 2
    raw = np.ascontiguousarray(bits, dtype="<u8").view(np.uint8).reshape(rows, 2, 8 * w)
    flags = np.unpackbits(raw, axis=2, bitorder="little")
    back = np.zeros_like(flags)
    back[:, :, :n] = flags[:, :, perm]
    packed = np.packbits(back, axis=2, bitorder="little").view("<u8").reshape(rows, width)
    order = np.lexsort(packed.T[::-1])  # column 0 is the primary key
    return np.ascontiguousarray(packed[order]), np.ascontiguousarray(coeffs[order])


def state_fingerprint(bits, coeffs, perm, n: int) -> dict:
    """SHA-256 of the canonical state and <0|O|0> summed in canonical order."""
    bits, coeffs = original_labels(bits, coeffs, perm, n)
    w = bits.shape[1] // 2
    diagonal = ~bits[:, w:].any(axis=1)
    digest = hashlib.sha256(bits.tobytes())
    digest.update(np.ascontiguousarray(coeffs, dtype="<f8").tobytes())
    return {
        "rows": int(len(coeffs)),
        "state_sha256": digest.hexdigest(),
        "expectation": repr(float(np.sum(coeffs[diagonal])) if diagonal.any() else 0.0),
    }


def file_sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# -- comparison ---------------------------------------------------------------


def _close(a, b) -> bool:
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_close(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_close(x, y) for x, y in zip(a, b))
    if isinstance(a, float) or isinstance(b, float):
        numbers = isinstance(a, (int, float)) and isinstance(b, (int, float))
        return numbers and math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-15)
    return a == b


def mismatches(fp: dict, ref: dict, same_seed: bool, peer: dict | None) -> list[str]:
    """Fields of a fingerprint that disagree with the reference.

    ``exact`` must match bit for bit and ``close`` to 1e-9 relative for every
    seed.  ``bytes`` (artifact hashes that depend on qubit labels) must match
    the reference on its own seed, and on any other seed must match the
    first run of the same seed (``peer``).
    """
    bad = []
    for key, want in ref.get("exact", {}).items():
        if fp["exact"].get(key) != want:
            bad.append(f"exact.{key}: {fp['exact'].get(key)!r} != {want!r}")
    for key, want in ref.get("close", {}).items():
        if not _close(fp["close"].get(key), want):
            bad.append(f"close.{key} differs")
    want_bytes = ref.get("bytes", {}) if same_seed else (peer or fp).get("bytes", {})
    for key, want in want_bytes.items():
        if fp.get("bytes", {}).get(key) != want:
            bad.append(f"bytes.{key} differs")
    return bad
