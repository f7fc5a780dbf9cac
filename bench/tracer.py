"""Call tracing from outside the program: wrap layer functions where they are looked up.

Python resolves a call such as ``solve_beta(c, eta)`` inside ``dnmf.statespace``
through that module's globals, and ``stft(...)`` inside ``dnmf.cli`` through
``dnmf.cli``'s globals (it was bound there by ``from .dsp import stft``).  So
wrapping the function in its defining module alone would miss most calls.
:meth:`Tracer.install` therefore replaces *every* attribute of every loaded
``dnmf`` module that is the original function object, and then checks that no
unwrapped reference is left.  The program's source is never touched.

Each call becomes a span (name, start, end, parent span, operation id), kept
in flat in-memory arrays and written out by :meth:`Tracer.save`.  Self time
is a span's duration minus the durations of its direct children; calls are
properly nested because everything runs on one thread.
"""
from __future__ import annotations

import sys
import time
from array import array

import numpy as np

# (defining module, public function).  Labels drop the "dnmf." prefix.
LAYER_FUNCTIONS = (
    ("dnmf.wav", "read_wav"),
    ("dnmf.wav", "write_wav"),
    ("dnmf.dsp", "stft"),
    ("dnmf.dsp", "istft"),
    ("dnmf.dsp", "wiener_reconstruct"),
    ("dnmf.statespace", "train"),
    ("dnmf.statespace", "filter_frame"),
    ("dnmf.statespace", "solve_beta"),
    ("dnmf.statespace", "estimate_nvar"),
    ("dnmf.statespace", "build_lag_matrix"),
    ("dnmf.statespace", "map_objective"),
    ("dnmf.plca", "is_nmf_update_w"),
    ("dnmf.experiments", "separate_sources"),
    ("dnmf.experiments", "run_tracking"),
    ("dnmf.cli", "load_model"),
    ("dnmf.cli", "save_model"),
)
# Root span of every traced operation: the CLI entry point itself.
ROOT = "cli.main"
LABELS = (ROOT,) + tuple(f"{m[5:]}.{f}" for m, f in LAYER_FUNCTIONS)
SOLVE_BETA = "statespace.solve_beta"
# Count of solve_beta calls whose prior mean is uniform (root known in closed form).
UNIFORM = SOLVE_BETA + ".uniform_calls"


def _dnmf_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "dnmf" or n.startswith("dnmf."))]


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self):
        self._ids = {label: i for i, label in enumerate(LABELS)}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.uniform_beta = 0  # solve_beta calls whose prior mean is uniform
        self._stack: list[int] = []
        self._op_id = -1
        self._patched: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------
    def _open(self, label_id: int) -> int:
        idx = len(self.start)
        self.name.append(label_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op_id)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _wrap(self, label: str, fn):
        label_id = self._ids[label]
        open_span, stack = self._open, self._stack
        starts, ends, clock = self.start, self.end, time.perf_counter
        tracer = self

        if label == SOLVE_BETA:
            def wrapper(*args, **kwargs):
                eta = args[1] if len(args) > 1 else kwargs["eta"]
                if np.all(eta == eta[0]):
                    tracer.uniform_beta += 1
                idx = open_span(label_id)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    ends[idx] = clock()
                    starts[idx] = t0
                    stack.pop()
        else:
            def wrapper(*args, **kwargs):
                idx = open_span(label_id)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    ends[idx] = clock()
                    starts[idx] = t0
                    stack.pop()
        return wrapper

    def run_op(self, op_id: int, fn, *args):
        """Call ``fn(*args)`` as the root span of operation ``op_id``."""
        self._op_id = op_id
        idx = self._open(self._ids[ROOT])
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.end[idx] = time.perf_counter()
            self.start[idx] = t0
            self._stack.pop()

    # -- wrappers ----------------------------------------------------------
    def install(self) -> None:
        """Wrap every binding of every layer function; verify none is missed."""
        modules = _dnmf_modules()
        for mod_name, func_name in LAYER_FUNCTIONS:
            original = getattr(sys.modules[mod_name], func_name)
            wrapper = self._wrap(f"{mod_name[5:]}.{func_name}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
            for mod in modules:
                if any(v is original for v in vars(mod).values()):
                    raise RuntimeError(f"unwrapped binding of {func_name} in {mod.__name__}")

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # -- results -----------------------------------------------------------
    def counts_since(self, first: int) -> dict[str, int]:
        """Calls per layer among the spans recorded from index ``first`` on."""
        counts = np.bincount(np.frombuffer(self.name[first:], dtype=np.int32),
                             minlength=len(LABELS))
        return {label: int(n) for label, n in zip(LABELS, counts)}

    def arrays(self) -> dict[str, np.ndarray]:
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = end - start
        child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0],
                            minlength=len(dur))
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": parent.copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "start": start.copy(),
            "end": end.copy(),
            "self": dur - child,
        }

    def save(self, path: str) -> None:
        spans = self.arrays()
        np.savez(path, labels=np.array(LABELS), **spans)
