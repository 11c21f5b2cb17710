"""tftlib benchmark: verified product and image throughput, per-layer spans.

Usage, from the repository root:

    python3 perfbench/run.py --workload mul-pow2-edges --seed 1 --seconds 20 --trace 0

One process, one thread, one caller: a closed loop in which each call starts
when the previous one returns.  The library is imported from ``src/`` next to
this directory.  Inputs come from ``--seed``; every output is verified outside
the timed region.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The exit code
is 1 when any output is wrong and 2 when the library cannot be found.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads as wk  # noqa: E402

# Set-ups: a few before the first round and more after every round, so that
# their median spans the whole run rather than one moment of it; each is put
# in nominal seconds with the scale of the round next to it.
SETUPS_FIRST = 3
SETUPS_BETWEEN = 2
MIN_ROUNDS = 3

# Per-layer metrics of the traced run, for one pass over the call list plus
# one set-up.  ``_s`` is self time except transform.dwt_s / transform.idwt_s,
# which are inclusive; counts are inclusive of child spans.
SELF, INCL = "self_s", "incl_s"
_SPAN_METRICS = [
    ("ring.ctx_init_s", "ring.ctx_init", SELF),
    ("ring.find_root_of_unity.calls", "ring.find_root_of_unity", "calls"),
    ("ring.find_root_of_unity_s", "ring.find_root_of_unity", SELF),
    ("ring.pow_counted.calls", "ring.pow_counted", "calls"),
    ("ring.pow_counted_s", "ring.pow_counted", SELF),
    ("plan.plan_new.calls", "plan.plan_new", "calls"),
    ("plan.plan_new_s", "plan.plan_new", SELF),
]
for _fn, _time in (("fft_in_place", SELF), ("ifft_in_place", SELF),
                   ("scale_by_powers", SELF), ("dwt", INCL), ("idwt", INCL)):
    _SPAN_METRICS.append((f"transform.{_fn}_s", f"transform.{_fn}", _time))
    _SPAN_METRICS += [(f"transform.{_fn}.{k}", f"transform.{_fn}", k)
                      for k in ("mul", "pow2", "add")]
for _metric, _fn in (("reduce_to_remainders_s", "reduce_to_remainders"),
                     ("add_contribution_s", "add_contribution"),
                     ("break_in_place.self_s", "break_in_place"),
                     ("sergeev_break_s", "sergeev_break"),
                     ("mateer_break_s", "mateer_break"),
                     ("unbreak_in_place_s", "unbreak_in_place"),
                     ("ctft_forward.self_s", "ctft_forward")):
    _SPAN_METRICS.append((f"ctft.{_metric}", f"ctft.{_fn}", SELF))
    _SPAN_METRICS += [(f"ctft.{_fn}.{k}", f"ctft.{_fn}", k) for k in ("mul", "pow2", "add")]
_SPAN_METRICS += [
    ("bitops.next_satisfying_exponent.calls", "bitops.next_satisfying_exponent", "calls"),
    ("bitops.next_satisfying_exponent_s", "bitops.next_satisfying_exponent", SELF),
    ("bridge.scale_by_powers_s", "bridge.scale_by_powers", SELF),
    ("bridge.scale_by_powers.mul", "bridge.scale_by_powers", "mul"),
    ("bridge.brtft_forward.self_s", "bridge.brtft_forward", SELF),
    ("bridge.brtft_inverse.self_s", "bridge.brtft_inverse", SELF),
    ("bridge.multiply_tft.self_s", "bridge.multiply_tft", SELF),
    ("bridge.multiply_full_fft.self_s", "bridge.multiply_full_fft", SELF),
]
# (metric, numerator span, numerator key, spans whose bases sum to the
# denominator, what the base is, budget note)
_BRTFT = ("bridge.brtft_forward", "bridge.brtft_inverse")
_RATIOS = [
    ("ctft.break.add_per_n", "ctft.break_in_place", "add", ("ctft.break_in_place",),
     "n", "budget <= 3"),
    ("ctft.break.pow2_per_n", "ctft.break_in_place", "pow2", ("ctft.break_in_place",),
     "n", "budget <= 2"),
    ("transform.fft.mul_per_half_nlog2n", "transform.fft_in_place", "mul",
     ("transform.fft_in_place",), "n*log2(n)/2", "butterflies plus twiddles"),
    ("bridge.scale.mul_per_n", "bridge.scale_by_powers", "mul", _BRTFT,
     "brtft transform length n", "all 4 per n are wasted at n = 2^k"),
]
_OTHER = [
    ("ctft.alloc", "elements", "lower"),
    ("ctft.break.mul", "count", "lower"),
    ("bridge.mul_fft.useful_frac", "ratio", "higher"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.tft_mul.transform_frac", "ratio", "higher"),
    ("trace.images.ctft_frac", "ratio", "higher"),
    ("ops.mul", "count", "lower"),
    ("ops.pow2", "count", "lower"),
    ("ops.add", "count", "lower"),
]


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for name, _, key in _SPAN_METRICS:
        out.append((name, "s" if key in (SELF, INCL) else "count", "lower"))
    out += [(name, "ratio", "lower") for name, *_ in _RATIOS]
    return out + _OTHER


END_TO_END = [("setup_s", "s")] + [(slot, "coef/s") for slot in wk.SLOTS] + [("peak_rss_mb", "MB")]


# set-up -------------------------------------------------------------------

def fresh_setup(plan_lengths, tracer=None):
    """Import tftlib afresh, build the field context and the reused plans.

    Returns (seconds, tftlib, ctx, plans).  With a tracer, its wrappers go in
    right after the import and the context and plans are built under the
    ``bench.setup`` root span.
    """
    for name in [m for m in sys.modules if m == "tftlib" or m.startswith("tftlib.")]:
        del sys.modules[name]
    t0 = time.perf_counter()
    tftlib = importlib.import_module("tftlib")
    if tracer is not None:
        tracer.install(tftlib)
        tracer.enter(spans.SETUP_ROOT)
    ctx = tftlib.ring.FieldCtx()
    if tracer is not None:
        tracer.bind(ctx)
    plans = {n: tftlib.plan.plan_new(n, ctx) for n in plan_lengths}
    if tracer is not None:
        tracer.leave()
    seconds = time.perf_counter() - t0
    importlib.import_module("tftlib.oracle")
    return seconds, tftlib, ctx, plans


# reporting ------------------------------------------------------------------

def _fmt(v: float) -> str:
    return f"{v:.6g}"


def smoothness_table(wl, rounds) -> list[str]:
    """Time and counts per path and length, TFT/padded ratios and the
    2^k -> 2^k + 1 step, each with its base.  Informational, not gated."""
    med = {}
    for g, sec in zip(wl.groups, wk.per_call(wl, rounds)):
        med[(g.path, g.n)] = (sec, g.ops)
    lines = ["smoothness (nominal s per call; ops = mul/pow2/add per call)"]
    lengths = sorted({g.n for g in wl.groups})
    for n in lengths:
        fft_t = med[("mul_fft", n)][0]
        cells = [f"{p}={_fmt(med[(p, n)][0])}s ops={'/'.join(map(str, med[(p, n)][1]))}"
                 for p in wl.paths]
        ratios = [f"{p}/mul_fft={med[(p, n)][0] / fft_t:.3f}" for p in ("mul_ctft", "mul_brtft")]
        lines.append(f"  n={n}: " + "  ".join(cells) + f"  [{', '.join(ratios)}; base "
                     f"mul_fft={_fmt(fft_t)}s]")
    for n in lengths:
        if n & (n - 1) == 0 and n + 1 in lengths:
            steps = [f"{p} x{med[(p, n + 1)][0] / med[(p, n)][0]:.3f}"
                     f" (base {_fmt(med[(p, n)][0])}s)" for p in wl.paths]
            lines.append(f"  step {n} -> {n + 1}: " + ", ".join(steps))
    return lines


def layer_metrics(agg, ops_per_pass, overhead, useful):
    values = {}
    for name, span, key in _SPAN_METRICS:
        values[name] = agg.get(span, key)
    bases = {}
    for name, span, key, base_spans, base_name, note in _RATIOS:
        base = sum(agg.get(s, "base") for s in base_spans)
        num = agg.get(span, key)
        values[name] = num / base if base else 0.0
        bases[name] = f"{_fmt(num)} {key} / {base_name} summed {_fmt(base)}; {note}"
    # the mateer engine's N-slot buffer is the only scratch the library takes
    values["ctft.alloc"] = sum(t["alloc"] for s, t in agg.by_name.items()
                               if s.startswith("bench.") and s != spans.SETUP_ROOT)
    values["ctft.break.mul"] = agg.get("ctft.break_in_place", "mul")
    bases["ctft.break.mul"] = "must be 0"
    values["bridge.mul_fft.useful_frac"] = useful[0] / useful[1] if useful[1] else 0.0
    bases["bridge.mul_fft.useful_frac"] = f"n {useful[0]} / padded N {useful[1]}"
    values["trace.overhead_frac"] = overhead
    part, whole = agg.root_share({"bench.mul_ctft", "bench.mul_brtft"}, {"transform"})
    values["trace.tft_mul.transform_frac"] = part / whole if whole else 0.0
    bases["trace.tft_mul.transform_frac"] = (f"transform self {_fmt(part)}s / "
                                             f"TFT product time {_fmt(whole)}s")
    image_roots = {"bench." + p for p in wk.IMAGE_PATHS}
    part, whole = agg.root_share(image_roots, {"ctft", "bitops"})
    values["trace.images.ctft_frac"] = part / whole if whole else 0.0
    bases["trace.images.ctft_frac"] = f"ctft+bitops self {_fmt(part)}s / images time {_fmt(whole)}s"
    for k, v in zip(("mul", "pow2", "add"), ops_per_pass):
        values[f"ops.{k}"] = v
    return values, bases


def useful_work(wl) -> tuple[int, int]:
    """Product coefficients and padded transform slots of mul_fft, one pass."""
    groups = [g for g in wl.groups if g.path == "mul_fft"]
    return (sum(g.n * g.reps for g in groups),
            sum((1 << (g.n - 1).bit_length()) * g.reps for g in groups))


# main -----------------------------------------------------------------------

def timed(wl, lib, ctx, plans, tally, seconds, tracer=None, min_rounds=MIN_ROUNDS,
          between=None):
    """Rounds for `seconds`, with the ring operations of one pass."""
    with ctx.count_session() as sess:
        rounds = wk.run_rounds(wl, lib, ctx, plans, tally, seconds, tracer, min_rounds, between)
    ops = tuple(v // len(rounds) for v in (sess.mul, sess.pow2, sess.add))
    return rounds, ops


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(wk.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = HERE.parent / "src"
    if not (src / "tftlib" / "__init__.py").is_file():
        print(f"perfbench: no tftlib sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    # numpy is a declared dependency of tftlib; importing it first keeps
    # peak_rss_mb about the library's buffers, not about who imports numpy
    import numpy  # noqa: F401

    plan_lengths = wk.PLAN_LENGTHS[args.workload]
    first = [fresh_setup(plan_lengths)[0] for _ in range(SETUPS_FIRST - 1)]
    seconds, tftlib, ctx, plans = fresh_setup(plan_lengths)
    first.append(seconds)
    wl = wk.WORKLOADS[args.workload](args.seed, ctx.p)
    wk.prepare(wl, plans, ctx.p, tftlib.oracle)
    tally = wk.Tally()

    if args.trace == 0:
        after = []  # after[r]: the set-ups run right after round r

        def setups_between():
            after.append([fresh_setup(plan_lengths)[0] for _ in range(SETUPS_BETWEEN)])

        rounds, ops = timed(wl, tftlib, ctx, plans, tally, args.seconds, between=setups_between)
        # each set-up takes the nominal scale of the round next to it
        setup_times = ([(s, s * rounds[0].scale) for s in first]
                       + [(s, s * r.scale) for r, batch in zip(rounds, after) for s in batch])
        rates = wk.throughput(wl, rounds)
        raw = wk.throughput(wl, rounds, nominal=False)
        metrics = {"setup_s": statistics.median(s for _, s in setup_times)}
        for slot, members in wk.SLOTS.items():
            metrics[slot] = next(rates[p] for p in members if p in rates)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        units = dict(END_TO_END)
        scales = [r.scale for r in rounds]
        print(f"nominal seconds per measured second: median {_fmt(statistics.median(scales))}, "
              f"range {_fmt(min(scales))} .. {_fmt(max(scales))} over {len(rounds)} rounds")
        for path in wl.paths:
            print(f"{path}.coef_per_s = {_fmt(rates[path])} nominal, {_fmt(raw[path])} measured")
        print(f"setup_s measured = {_fmt(statistics.median(s for s, _ in setup_times))} "
              f"(median of {len(setup_times)})")
        print(f"ops per pass: mul={ops[0]} pow2={ops[1]} add={ops[2]}")
        print(f"calls per round={sum(g.reps for g in wl.groups)}")
        if wl.name == "mul-pow2-edges":
            print("\n".join(smoothness_table(wl, rounds)))
    else:
        half = args.seconds / 2
        plain, ops = timed(wl, tftlib, ctx, plans, tally, half, min_rounds=1)
        tracer = spans.Tracer()
        _, tftlib, ctx, plans = fresh_setup(wl.plan_lengths, tracer)
        traced, _ = timed(wl, tftlib, ctx, plans, tally, half, tracer, min_rounds=1)
        overhead = (statistics.median(r.nominal_seconds() for r in traced)
                    / statistics.median(r.nominal_seconds() for r in plain) - 1)
        scale = statistics.median(r.scale for r in traced)
        agg = tracer.aggregate(len(traced), scale)
        values, bases = layer_metrics(agg, ops, overhead, useful_work(wl))
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        span_file = out_dir / f"spans-{wl.name}.tsv"
        tracer.write(span_file)
        units = {name: unit for name, unit, _ in per_layer_spec()}
        metrics = {name: values[name] for name in units}
        for name in units:
            note = f"   ({bases[name]})" if name in bases else ""
            print(f"{name} = {_fmt(metrics[name])} {units[name]}{note}")
        print(f"times in nominal seconds, {_fmt(scale)} per measured second; "
              f"traced rounds={len(traced)} untraced rounds={len(plain)} "
              f"spans={len(tracer.rec['sid'])} written to {span_file.relative_to(HERE.parent)}")

    fail_frac = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"fail_frac = {fail_frac} ({tally.failed} of {tally.attempted} outputs)")
    correct = tally.failed == 0 and tally.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
