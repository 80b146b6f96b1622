"""Spans around calls into `ghzqss`'s public functions, recorded from outside.

``Tracer.installed()`` replaces each traced function by a wrapper in every
`ghzqss` module namespace that holds it, including the defining module, so
calls such as ``protocol.encode_round`` reached through ``attacks`` and
``statevec.apply_hadamard`` reached through ``statevec.measure_x`` are seen.
Spans are kept in flat arrays while the program runs; self times and the
per-layer metrics are computed afterwards.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
from array import array
from time import perf_counter

# Traced public functions, by defining module.  Functions of `statevec`
# (and `StateVector` construction) are split by register size.
TRACED = {
    "cli": ("main",),
    "session": ("run_session", "eavesdrop_check", "write_outputs"),
    "attacks": ("run_round", "exact_round_analysis", "conditional_detection_rate",
                "eve_mutual_information"),
    "protocol": ("prepare_variant", "receiver_correction", "encode_round", "measure_round",
                 "plan_sequences", "announcement_schedule", "recover_secret"),
    "statevec": ("apply_hadamard", "apply_cnot", "append_ancilla", "measure_z", "measure_x",
                 "measure_bell", "z_projections", "x_projections", "bell_projections",
                 "outcome_distribution"),
}
SIZED_MODULE = "statevec"
STATE_VECTOR = "statevec.StateVector"

# Register-size buckets, each named by its qubit range and holding sizes up
# to its bound: n=3 sessions stay within 5 qubits, n=9 sessions use 9-11
# and n=10 analyses 10-12.
SIZE_BUCKETS = (("q1-5", 5), ("q6-9", 9), ("q10-11", 11), ("q12-24", 24))

# Functions whose time is reported only where `run_round` called them.
VIA_RUN_ROUND = ("protocol.prepare_variant", "protocol.receiver_correction",
                 "protocol.encode_round", "protocol.measure_round")
RUN_ROUND = "attacks.run_round"
WRITE_BYTES = "session.write_outputs.bytes"


def _layer_metric_names() -> list[str]:
    names = [f"{RUN_ROUND}.{m}" for m in ("calls", "s", "self_s")]
    names += [f"{f}.s" for f in VIA_RUN_ROUND]
    names += [f"{STATE_VECTOR}.calls", f"{STATE_VECTOR}.self_s"]
    for fn in TRACED[SIZED_MODULE]:
        for stat in ("calls", "self_s"):
            names += [f"statevec.{fn}.{stat}.{b}" for b, _hi in SIZE_BUCKETS]
    for fn in ("exact_round_analysis", "conditional_detection_rate", "eve_mutual_information"):
        names += [f"attacks.{fn}.calls", f"attacks.{fn}.s"]
    names += [f"protocol.{fn}.s" for fn in ("plan_sequences", "announcement_schedule",
                                             "recover_secret")]
    names += ["session.eavesdrop_check.s", "session.write_outputs.s", WRITE_BYTES,
              "session.run_session.self_s"]
    names += ["cli.main.s", "cli.main.self_s"]
    names += ["trace.commands", "trace.untraced_cmd_s", "trace.overhead_ratio"]
    return names


LAYER_METRICS = _layer_metric_names()


def layer_unit(metric: str) -> str:
    if metric == WRITE_BYTES:
        return "bytes"
    if metric == "trace.overhead_ratio":
        return "ratio"
    return "count" if metric.endswith((".calls", ".commands")) else "s"


def _bucket(num_qubits: int) -> str:
    for name, hi in SIZE_BUCKETS:
        if num_qubits <= hi:
            return name
    return SIZE_BUCKETS[-1][0]


class Tracer:
    """In-memory span log: name, start, end and parent index per span."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.bytes_written = 0

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = perf_counter()
        self._stack.pop()

    def _wrap(self, fn, label: str, sized: bool):
        tracer = self
        if sized:
            by_size = {k: f"{label}.q{k}" for k in range(64)}

            @functools.wraps(fn)
            def wrapper(state, *args, **kwargs):
                k = state.num_qubits
                i = tracer.open(by_size.get(k) or f"{label}.q{k}")
                try:
                    return fn(state, *args, **kwargs)
                finally:
                    tracer.close(i)
        elif label == "session.write_outputs":

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                i = tracer.open(label)
                try:
                    paths = fn(*args, **kwargs)
                finally:
                    tracer.close(i)
                tracer.bytes_written += sum(os.path.getsize(p) for p in paths)
                return paths
        else:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                i = tracer.open(label)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.close(i)

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced function in every loaded `ghzqss` namespace."""
        from ghzqss import statevec

        wrappers = {}
        for module, functions in TRACED.items():
            mod = sys.modules[f"ghzqss.{module}"]
            for fn_name in functions:
                original = getattr(mod, fn_name)
                wrappers[id(original)] = self._wrap(
                    original, f"{module}.{fn_name}", module == SIZED_MODULE
                )
        patched = []
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "ghzqss" or mod_name.startswith("ghzqss.")):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    setattr(mod, attr, wrapper)
                    patched.append((mod, attr, value))
        post_init = statevec.StateVector.__post_init__
        statevec.StateVector.__post_init__ = self._wrap(post_init, STATE_VECTOR, True)
        try:
            yield self
        finally:
            statevec.StateVector.__post_init__ = post_init
            for mod, attr, value in patched:
                setattr(mod, attr, value)

    def write_csv(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("id,parent,name,start,end\n")
            for i, nid in enumerate(self.name_id):
                name = self.names[nid]
                fh.write(f"{i},{self.parent[i]},{name},{self.start[i]!r},{self.end[i]!r}\n")


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children are swept in start order; overlapping children and children
    reaching outside their parent are clipped, so covered time is the
    length of the union of child intervals within the parent.
    """
    covered = [0.0] * len(starts)
    reach: dict[int, float] = {}
    for i in sorted(range(len(starts)), key=starts.__getitem__):
        p = parents[i]
        if p < 0:
            continue
        lo = max(starts[i], reach.get(p, starts[p]))
        hi = min(ends[i], ends[p])
        if hi > lo:
            covered[p] += hi - lo
        reach[p] = max(reach.get(p, starts[p]), ends[i])
    return [ends[i] - starts[i] - covered[i] for i in range(len(starts))]


def layer_metrics(
    tracer: Tracer, commands: int, untraced_s: float, traced_s: float
) -> dict[str, float]:
    """Per-layer metrics, each a mean per traced command.

    ``untraced_s`` and ``traced_s`` are the summed wall times of the same
    commands run without and with tracing.
    """
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    via_run_round: dict[str, float] = {}
    names, name_id, parent = tracer.names, tracer.name_id, tracer.parent
    for i, nid in enumerate(name_id):
        name = names[nid]
        label, _, size = name.rpartition(".q")
        if label.startswith("statevec.") and size.isdigit():
            name = label if label == STATE_VECTOR else f"{label}.{_bucket(int(size))}"
        calls[name] = calls.get(name, 0) + 1
        duration = tracer.end[i] - tracer.start[i]
        total[name] = total.get(name, 0.0) + duration
        own[name] = own.get(name, 0.0) + selfs[i]
        p = parent[i]
        if p >= 0 and names[name_id[p]] == RUN_ROUND:
            via_run_round[name] = via_run_round.get(name, 0.0) + duration

    out: dict[str, float] = {}
    for metric in LAYER_METRICS:
        if metric.startswith("trace."):
            continue
        if metric == WRITE_BYTES:
            value = tracer.bytes_written
        elif metric.startswith("statevec.") and metric.count(".") == 3:
            module, fn, stat, bucket = metric.split(".")
            value = (calls if stat == "calls" else own).get(f"{module}.{fn}.{bucket}", 0)
        else:
            label, stat = metric.rsplit(".", 1)
            if label in VIA_RUN_ROUND:
                value = via_run_round.get(label, 0.0)
            else:
                value = {"calls": calls, "s": total, "self_s": own}[stat].get(label, 0)
        out[metric] = value / commands
    out["trace.commands"] = commands
    out["trace.untraced_cmd_s"] = untraced_s / commands
    out["trace.overhead_ratio"] = traced_s / untraced_s - 1.0
    return out
