"""Circuit IR, model-family generators, and topology handling.

A circuit is an ordered list of Pauli rotations (generator, angle); the gate
list order is the order in which the propagation engine conjugates the
observable.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, replace
from importlib import resources

from .files import read_json, write_json
from .pauli import PauliString
from .rng import Xoshiro256StarStar

__all__ = [
    "Circuit",
    "Topology",
    "CircuitError",
    "FixedAngle",
    "UniformRandomAngle",
    "kicked_ising",
    "tfim_trotter_grid",
    "load_topology",
    "builtin_topology",
]

_GRID_NAME = re.compile(r"^grid_(\d+)x(\d+)$")


class CircuitError(ValueError):
    """Invalid topology, parameters, or serialized circuit."""


@dataclass(frozen=True)
class Topology:
    """Undirected coupling graph with canonically ordered edges."""

    n: int
    edges: tuple[tuple[int, int], ...]

    @classmethod
    def from_edges(cls, edges, n: int | None = None) -> "Topology":
        canon = []
        seen = set()
        for e in edges:
            i, j = int(e[0]), int(e[1])
            if i == j:
                raise CircuitError(f"self-loop edge ({i}, {j})")
            if i > j:
                i, j = j, i
            if (i, j) in seen:
                raise CircuitError(f"duplicate edge ({i}, {j})")
            if i < 0:
                raise CircuitError(f"negative qubit index in edge ({i}, {j})")
            seen.add((i, j))
            canon.append((i, j))
        if not canon:
            raise CircuitError("topology has no edges")
        canon.sort()
        max_q = max(j for _, j in canon)
        if n is None:
            n = max_q + 1
        elif max_q >= n:
            raise CircuitError(f"edge index {max_q} out of range for n={n}")
        return cls(n=n, edges=tuple(canon))

    @classmethod
    def grid(cls, rows: int, cols: int) -> "Topology":
        """Open-boundary square grid, row-major site numbering."""
        if rows < 1 or cols < 1:
            raise CircuitError("grid needs rows, cols >= 1")
        if rows * cols < 2:
            raise CircuitError("grid topology needs at least 2 sites")
        edges = []
        for r in range(rows):
            for c in range(cols):
                s = r * cols + c
                if c + 1 < cols:
                    edges.append((s, s + 1))
                if r + 1 < rows:
                    edges.append((s, s + cols))
        return cls.from_edges(edges, n=rows * cols)


def load_topology(path, n: int | None = None) -> Topology:
    """Read whitespace-separated ``i j`` lines ('#' comments allowed)."""
    edges = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise CircuitError(f"{path}:{lineno}: expected 'i j', got {line!r}")
            try:
                i, j = int(parts[0]), int(parts[1])
            except ValueError:
                raise CircuitError(f"{path}:{lineno}: non-integer index in {line!r}") from None
            edges.append((i, j))
    return Topology.from_edges(edges, n=n)


def builtin_topology(name: str) -> Topology:
    """Named topologies: ``ibm_heavy_hex_127`` or ``grid_<R>x<C>``."""
    if name == "ibm_heavy_hex_127":
        ref = resources.files("pauliprop").joinpath("data/ibm_heavy_hex_127.txt")
        with resources.as_file(ref) as path:
            return load_topology(path, n=127)
    m = _GRID_NAME.match(name)
    if m:
        return Topology.grid(int(m.group(1)), int(m.group(2)))
    raise CircuitError(f"unknown builtin topology {name!r}")


@dataclass(frozen=True)
class FixedAngle:
    """Every single-qubit rotation uses the same angle."""

    value: float


@dataclass(frozen=True)
class UniformRandomAngle:
    """One angle per (step, qubit), uniform in [low, high), seeded."""

    low: float
    high: float
    seed: int


@dataclass(frozen=True)
class Circuit:
    """Ordered Pauli-rotation list; immutable and freely shareable."""

    n: int
    gates: tuple[tuple[PauliString, float], ...]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        for k, (g, theta) in enumerate(self.gates, start=1):
            if g.n != self.n:
                raise CircuitError(f"generator on {g.n} qubits inside n={self.n} circuit")
            if not math.isfinite(theta):
                raise CircuitError(f"gate {k} ({g.to_sparse_label()}) has non-finite angle {theta!r}")

    def __len__(self) -> int:
        return len(self.gates)

    def to_json_dict(self) -> dict:
        return {
            "format": "pauliprop-circuit/1",
            "n": self.n,
            "gates": [[g.to_sparse_label(), theta] for g, theta in self.gates],
            "metadata": self.metadata,
        }

    def save(self, path) -> None:
        write_json(path, self.to_json_dict())

    @classmethod
    def from_json_dict(cls, payload: dict) -> "Circuit":
        fmt = payload.get("format") if isinstance(payload, dict) else None
        if fmt != "pauliprop-circuit/1":
            raise CircuitError(f"unknown circuit format {fmt!r}")
        try:
            n = int(payload["n"])
            entries = [(str(label), float(theta)) for label, theta in payload["gates"]]
            metadata = dict(payload.get("metadata", {}))
        except (KeyError, TypeError, ValueError):
            raise CircuitError(
                "a circuit needs an integer n, a list of [label, angle] gates and a metadata object"
            ) from None
        # one generator object per distinct label: evolve prepares each object once
        generators: dict[str, PauliString] = {}
        gates = []
        for label, theta in entries:
            g = generators.get(label)
            if g is None:
                g = generators[label] = PauliString.from_label(label, n)
            gates.append((g, theta))
        return cls(n=n, gates=tuple(gates), metadata=metadata)

    @classmethod
    def load(cls, path) -> "Circuit":
        return cls.from_json_dict(read_json(path))


def _zz(n: int, i: int, j: int) -> PauliString:
    return PauliString.from_label(f"Z{i}*Z{j}", n)


def _x(n: int, q: int) -> PauliString:
    return PauliString.from_label(f"X{q}", n)


def kicked_ising(topology: Topology, T: int, theta_zz: float, theta_x_spec) -> Circuit:
    """Kicked-Ising Trotter circuit on an arbitrary coupling graph.

    Each of the T steps applies RZZ(theta_zz) on every edge in canonical
    order, then RX on qubits 0..n-1.  ``theta_x_spec`` is a FixedAngle or a
    UniformRandomAngle (one draw per step and qubit, in that loop order).
    """
    if T < 1:
        raise CircuitError(f"T must be >= 1, got {T}")
    n = topology.n
    if not topology.edges:
        raise CircuitError("topology has no edges")
    rng = None
    if isinstance(theta_x_spec, UniformRandomAngle):
        rng = Xoshiro256StarStar(theta_x_spec.seed)
    elif not isinstance(theta_x_spec, FixedAngle):
        raise CircuitError(
            f"theta_x_spec must be a FixedAngle or UniformRandomAngle, got {theta_x_spec!r}"
        )

    zz_gens = [_zz(n, i, j) for i, j in topology.edges]
    x_gens = [_x(n, q) for q in range(n)]
    gates = []
    for _step in range(T):
        for g in zz_gens:
            gates.append((g, float(theta_zz)))
        for q in range(n):
            if rng is not None:
                theta = rng.uniform(theta_x_spec.low, theta_x_spec.high)
            else:
                theta = theta_x_spec.value
            gates.append((x_gens[q], float(theta)))
    metadata = {
        "family": "kicked_ising",
        "n": n,
        "T": T,
        "theta_zz": float(theta_zz),
        "edges": len(topology.edges),
        "gates_per_step": len(topology.edges) + n,
    }
    if isinstance(theta_x_spec, FixedAngle):
        metadata["theta_x"] = theta_x_spec.value
    else:
        metadata["theta_x"] = {
            "low": theta_x_spec.low,
            "high": theta_x_spec.high,
            "seed": theta_x_spec.seed,
        }
    return Circuit(n=n, gates=tuple(gates), metadata=metadata)


def tfim_trotter_grid(
    rows: int,
    cols: int,
    h: float,
    t_total: float,
    dt: float,
    j_coupling: float = -1.0,
) -> Circuit:
    """First-order Trotterization of the transverse-field Ising model on an
    open-boundary grid.

    Per step: RZZ(2 * dt * j_coupling) on every grid edge, then
    RX(2 * dt * h) on every site (a rotation by theta is exp(-i theta P / 2)).
    dt must divide t_total.
    """
    if dt <= 0:
        raise CircuitError(f"dt must be positive, got {dt}")
    steps_f = t_total / dt
    steps = round(steps_f)
    if steps < 1 or abs(steps_f - steps) > 1e-9 * max(1.0, abs(steps_f)):
        raise CircuitError(f"dt={dt} does not divide t_total={t_total} into whole steps")
    topo = Topology.grid(rows, cols)
    circuit = kicked_ising(
        topo, T=steps, theta_zz=2.0 * dt * j_coupling, theta_x_spec=FixedAngle(2.0 * dt * h),
    )
    return replace(circuit, metadata={
        "family": "tfim_grid",
        "rows": rows,
        "cols": cols,
        "h": h,
        "t_total": t_total,
        "dt": dt,
        "j_coupling": j_coupling,
        "angle_scale": 2.0,
        "steps": steps,
        "edges": len(topo.edges),
        "gates_per_step": len(topo.edges) + topo.n,
    })
