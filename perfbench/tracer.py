"""In-memory spans around calls into pauliprop's public functions.

A traced run replaces names where their callers look them up (module
attributes and class attributes) with wrappers that record a span: id,
parent id, name, start and end in nanoseconds.  Nothing inside the package
changes.  Spans stay in memory and are written out once, at the end.

A span's self time is its duration minus the time covered by its direct
child spans, so nested calls (``find_rows`` packing keys through the module
global ``pack_keys``) are not counted twice.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict
from contextlib import contextmanager

KERNEL_FNS = ("anti_mask", "find_rows", "branch_signs", "lower_bound", "sort_order", "pack_keys")


def _array_work(args, result):
    """Rows and bytes a kernel call touches, computed from array sizes."""
    rows = 0
    nbytes = getattr(result, "nbytes", 0)
    for a in args:
        shape = getattr(a, "shape", None)
        if shape is None:
            continue
        nbytes += a.nbytes
        if len(shape) == 2:
            rows += shape[0]
    return rows, nbytes


class Tracer:
    """Records spans and per-name work counts for one process."""

    def __init__(self):
        self.spans: list = []
        self.rows: dict[str, int] = defaultdict(int)
        self.bytes: dict[str, int] = defaultdict(int)
        self.traces: list = []  # TraceLog of every completed evolve
        self._stack: list[int] = []

    # -- recording ---------------------------------------------------------

    def _enter(self) -> tuple[int, int]:
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        return sid, parent

    def _exit(self, sid, parent, name, start) -> None:
        self._stack.pop()
        self.spans[sid] = (sid, parent, name, start, time.perf_counter_ns())

    @contextmanager
    def span(self, name: str):
        sid, parent = self._enter()
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self._exit(sid, parent, name, start)

    def wrap(self, fn, name: str, account=None):
        """Return fn recorded as a span; account(args, kwargs, result) runs after."""
        enter, leave, clock = self._enter, self._exit, time.perf_counter_ns

        def traced(*args, **kwargs):
            sid, parent = enter()
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(sid, parent, name, start)
            if account is not None:
                account(args, kwargs, result)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def _patch(self, owners, attr, name, account=None):
        """Wrap attr once and bind the wrapper on every owner that holds it."""
        wrapped = self.wrap(getattr(owners[0], attr), name, account)
        for owner in owners:
            setattr(owner, attr, wrapped)

    def _patch_classmethod(self, cls, attr, name, account=None):
        func = cls.__dict__[attr].__func__
        setattr(cls, attr, classmethod(self.wrap(func, name, account)))

    def install(self, with_cli: bool = False) -> None:
        """Wrap the layer entry points; call after importing pauliprop."""
        import pauliprop
        from pauliprop import circuits, convergence, engine, estimator, kernels
        from pauliprop.sums import PauliSum

        for fn in KERNEL_FNS:
            self._patch([kernels], fn, f"kernels.{fn}", self._kernel_account(f"kernels.{fn}"))

        evolve_owners = [engine, pauliprop, estimator, convergence]
        build_owners = [circuits, pauliprop]
        cli = None
        if with_cli:
            from pauliprop import cli

            evolve_owners.append(cli)
            build_owners.append(cli)
        self._patch(evolve_owners, "evolve", "engine.evolve", self._keep_trace)
        for fn in ("builtin_topology", "kicked_ising", "tfim_trotter_grid"):
            self._patch(build_owners, fn, "circuits.build")
        self._patch_classmethod(circuits.Circuit, "load", "circuits.load")
        self._patch_classmethod(PauliSum, "from_terms", "sums.from_terms")
        PauliSum.to_npz = self.wrap(PauliSum.to_npz, "sums.to_npz", self._npz_account)

        if cli is not None:
            for attr, name in (
                ("run_probes", "estimator.run_probes"),
                ("predict_resources", "estimator.predict_resources"),
                ("run_protocol", "convergence.run_protocol"),
                ("histogram", "analysis.histogram"),
                ("fit_m_mle", "analysis.fit_m_mle"),
            ):
                self._patch([cli], attr, name)

    def _kernel_account(self, name):
        rows, nbytes = self.rows, self.bytes

        def account(args, _kwargs, result):
            r, b = _array_work(args, result)
            rows[name] += r
            nbytes[name] += b

        return account

    def _keep_trace(self, _args, _kwargs, result):
        self.traces.append(result[1])

    def _npz_account(self, args, kwargs, _result):
        path = kwargs.get("path", args[1] if len(args) > 1 else None)
        self.bytes["sums.to_npz"] += os.path.getsize(path)

    # -- results -----------------------------------------------------------

    def totals(self) -> dict[str, dict]:
        """Per name: calls, total seconds and self seconds."""
        child_ns = defaultdict(int)
        for sid, parent, _name, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict] = {}
        for sid, _parent, name, start, end in self.spans:
            entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["s"] += (end - start) * 1e-9
            entry["self_s"] += (end - start - child_ns[sid]) * 1e-9
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("id,parent,name,start_ns,end_ns\n")
            for sid, parent, name, start, end in self.spans:
                fh.write(f"{sid},{parent},{name},{start},{end}\n")
