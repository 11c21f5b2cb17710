"""Span tracing for the traced benchmark run, from outside the library.

The library imports its helpers by name (``from .transform import dwt``), so a
function is reachable through every module that imported it.
:meth:`Tracer.install` replaces each target function in every ``tftlib``
namespace that holds it.  A span keeps the name of the module that defines the
function, except for the bindings in ``OWN_NAME``: ``bridge.scale_by_powers``
(the Omega_s change of variable) stays apart from ``transform.scale_by_powers``
(the dwt/idwt weighting pass) although both are the same function.

Spans stay in memory as flat integer arrays and are written out at the end.
Each span records its parent, the benchmark root span it ran under, its start
and duration, and the ring operations and scratch elements counted inside it.
Self time is computed from them afterwards: a span's duration minus the
durations of its child spans.
"""

from __future__ import annotations

import time
from array import array
from types import SimpleNamespace

# (defining module, function) pairs wrapped in every namespace that holds them.
TARGETS = (
    ("ring", "find_root_of_unity"),
    ("plan", "plan_new"),
    ("transform", "fft_in_place"),
    ("transform", "ifft_in_place"),
    ("transform", "scale_by_powers"),
    ("transform", "dwt"),
    ("transform", "idwt"),
    ("bitops", "next_satisfying_exponent"),
    ("ctft", "reduce_to_remainders"),
    ("ctft", "add_contribution"),
    ("ctft", "break_in_place"),
    ("ctft", "sergeev_break"),
    ("ctft", "mateer_break"),
    ("ctft", "unbreak_in_place"),
    ("ctft", "ctft_forward"),
    ("ctft", "ctft_inverse"),
    ("bridge", "brtft_forward"),
    ("bridge", "brtft_inverse"),
    ("bridge", "multiply_full_fft"),
    ("bridge", "multiply_tft"),
)
# (module, class, method, span name); patched once on the class.
METHODS = (
    ("ring", "FieldCtx", "__init__", "ring.ctx_init"),
    ("ring", "FieldCtx", "pow_counted", "ring.pow_counted"),
)
# consumer bindings whose span is named after the consumer, not the definer
OWN_NAME = {("bridge", "scale_by_powers")}
MODULES = ("ring", "bitops", "plan", "transform", "ctft", "bridge")


# Per-call base of a budget ratio, read from the call's arguments.
BASES = {
    "ctft.break_in_place": lambda args: args[2].n,
    "transform.fft_in_place": lambda args: args[2] * (args[2].bit_length() - 1) // 2,
    "bridge.brtft_forward": lambda args: args[2].n,
    "bridge.brtft_inverse": lambda args: args[2].n,
}

SETUP_ROOT = "bench.setup"
FIELDS = ("sid", "name", "parent", "root", "start_ns", "dur_ns",
          "mul", "pow2", "add", "alloc", "base")


class Tracer:
    """Collects spans; bind it to the context whose counters it should read."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.rec = {f: array("q") for f in FIELDS}
        self._stack = [-1]
        self._next = 0
        self.root = -1
        self.ctx = SimpleNamespace(ops=SimpleNamespace(mul=0, pow2=0, add=0),
                                   scratch_allocated=0)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def bind(self, ctx) -> None:
        self.ctx = ctx

    # recording -------------------------------------------------------------

    def _open(self):
        ctx = self.ctx
        ops = ctx.ops
        sid = self._next
        self._next = sid + 1
        parent = self._stack[-1]
        self._stack.append(sid)
        return (sid, parent, ctx, ops, ops.mul, ops.pow2, ops.add,
                ctx.scratch_allocated, time.perf_counter_ns())

    def _close(self, frame, nid: int, base: int) -> None:
        t1 = time.perf_counter_ns()
        sid, parent, ctx, ops, m0, q0, a0, s0, t0 = frame
        self._stack.pop()
        r = self.rec
        r["sid"].append(sid)
        r["name"].append(nid)
        r["parent"].append(parent)
        r["root"].append(self.root)
        r["start_ns"].append(t0)
        r["dur_ns"].append(t1 - t0)
        r["mul"].append(ops.mul - m0)
        r["pow2"].append(ops.pow2 - q0)
        r["add"].append(ops.add - a0)
        r["alloc"].append(ctx.scratch_allocated - s0)
        r["base"].append(base)

    def wrap(self, fn, name: str):
        nid = self.name_id(name)
        basefn = BASES.get(name)
        tracer = self

        def traced(*args, **kwargs):
            base = basefn(args) if basefn is not None else 0
            frame = tracer._open()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(frame, nid, base)

        traced.__wrapped__ = fn
        return traced

    def enter(self, name: str) -> None:
        """Open a benchmark root span; library spans opened under it carry its id."""
        self.root = self.name_id(name)
        self._root_frame = self._open()

    def leave(self) -> None:
        self._close(self._root_frame, self.root, 0)
        self.root = -1

    def install(self, tftlib) -> None:
        """Wrap every target in every tftlib namespace that binds it.

        A target missing from this version of the library is skipped; its
        metrics then read 0.
        """
        spaces = {m: getattr(tftlib, m) for m in MODULES if hasattr(tftlib, m)}
        spaces["tftlib"] = tftlib
        for mod, fname in TARGETS:
            orig = getattr(spaces.get(mod), fname, None)
            if orig is None:
                continue
            for cname, space in spaces.items():
                for attr, val in list(vars(space).items()):
                    if val is orig:
                        own = (cname, attr) in OWN_NAME
                        name = f"{cname}.{attr}" if own else f"{mod}.{fname}"
                        setattr(space, attr, self.wrap(orig, name))
        for mod, cls_name, meth, name in METHODS:
            cls = getattr(spaces.get(mod), cls_name, None)
            if cls is not None and meth in vars(cls):
                setattr(cls, meth, self.wrap(vars(cls)[meth], name))

    # results ---------------------------------------------------------------

    def write(self, path) -> None:
        """Write every span, one tab-separated line each, names resolved."""
        r = self.rec
        with open(path, "w", encoding="ascii") as fh:
            fh.write("\t".join(FIELDS) + "\n")
            for i in range(len(r["sid"])):
                row = [str(r[f][i]) for f in FIELDS]
                row[1] = self.names[r["name"][i]]
                row[3] = self.names[r["root"][i]] if r["root"][i] >= 0 else "-"
                fh.write("\t".join(row) + "\n")

    def aggregate(self, rounds: int, scale: float = 1.0) -> "Aggregate":
        """Per-name totals for one pass: spans under the setup root count once,
        all others are divided by the number of traced rounds.  Times are
        multiplied by `scale`."""
        r = self.rec
        total = len(r["sid"])
        child = [0] * self._next
        for parent, dur in zip(r["parent"], r["dur_ns"]):
            if parent >= 0:
                child[parent] += dur
        setup = self._ids.get(SETUP_ROOT, -2)
        agg = Aggregate(self.names, scale)
        for i in range(total):
            root = r["root"][i]
            w = 1.0 if root == setup else 1.0 / rounds
            dur = r["dur_ns"][i]
            self_ns = dur - child[r["sid"][i]]
            agg.add(r["name"][i], root, w, self_ns, dur, r["mul"][i], r["pow2"][i],
                    r["add"][i], r["alloc"][i], r["base"][i])
        return agg


class Aggregate:
    """Weighted per-name totals and per-root self time by layer."""

    KEYS = ("calls", "self_s", "incl_s", "mul", "pow2", "add", "alloc", "base")

    def __init__(self, names: list[str], scale: float = 1.0):
        self.names = names
        self.seconds_per_ns = scale * 1e-9
        self.by_name: dict[str, dict[str, float]] = {}
        self.layer_self: dict[tuple[str, str], float] = {}

    def add(self, nid, root, w, self_ns, dur, mul, pow2, add, alloc, base) -> None:
        name = self.names[nid]
        t = self.by_name.setdefault(name, dict.fromkeys(self.KEYS, 0.0))
        t["calls"] += w
        t["self_s"] += w * self_ns * self.seconds_per_ns
        t["incl_s"] += w * dur * self.seconds_per_ns
        t["mul"] += w * mul
        t["pow2"] += w * pow2
        t["add"] += w * add
        t["alloc"] += w * alloc
        t["base"] += w * base
        root_name = self.names[root] if root >= 0 else "-"
        key = (root_name, name.split(".", 1)[0])
        self.layer_self[key] = self.layer_self.get(key, 0.0) + w * self_ns * self.seconds_per_ns

    def get(self, name: str, key: str) -> float:
        return self.by_name.get(name, {}).get(key, 0.0)

    def root_share(self, roots, layers) -> tuple[float, float]:
        """(self time of the given layers under the given roots, roots' time)."""
        part = sum(v for (root, layer), v in self.layer_self.items()
                   if root in roots and layer in layers)
        whole = sum(self.get(root, "incl_s") for root in roots)
        return part, whole
