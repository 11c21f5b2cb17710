"""Tests of the benchmark itself, on inputs small enough to run in seconds.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads as wk  # noqa: E402

P = 2013265921


def tiny(name: str, seed: int):
    if name == "mul-pow2-edges":
        return wk.mul_pow2_edges(seed, P, ks=(3, 5), budget=4)
    if name == "images-roundtrip":
        return wk.images_roundtrip(seed, P, ks=(4, 6), budget=4)
    return wk.mul_small_many(seed, P, count=6, max_len=40)


NAMES = sorted(wk.WORKLOADS)


def measure(wl, tracer=None):
    """One round of a prepared workload; returns (tally, ops, per-group ops)."""
    _, lib, ctx, plans = run.fresh_setup(wl.plan_lengths, tracer)
    wk.prepare(wl, plans, ctx.p, lib.oracle)
    tally = wk.Tally()
    _, ops = run.timed(wl, lib, ctx, plans, tally, 0, tracer, min_rounds=1)
    return tally, ops, [g.ops for g in wl.groups]


def inputs(wl):
    out = []
    for g in wl.groups:
        if isinstance(g, wk.ProductGroup):
            out.append((g.path, g.product.f, g.product.g, g.product.points))
        else:
            out.append((g.path, g.x))
    return out


def _corrupt(out: list[int]) -> list[int]:
    bad = list(out)
    bad[len(bad) // 2] = (bad[len(bad) // 2] + 1) % P
    return bad


def test_corrupted_product_is_flagged():
    _, lib, ctx, _ = run.fresh_setup(())
    wl = tiny("mul-pow2-edges", 3)
    product = wl.groups[-1].product
    product.prepare(lib.oracle)
    good = lib.bridge.multiply_full_fft(ctx, product.f, product.g)
    assert not product.check(_corrupt(good), lib.oracle)  # against the oracle
    assert product.check(good, lib.oracle)
    assert not product.check(_corrupt(good), lib.oracle)  # against the first output


@pytest.mark.parametrize("path", ["mul_ctft", "images_new"])
def test_corrupting_library_fails_the_run(path):
    """A library that returns one wrong coefficient is counted as failed."""
    wl = tiny("images-roundtrip" if path.startswith("images") else "mul-pow2-edges", 5)
    _, lib, ctx, plans = run.fresh_setup(wl.plan_lengths)
    wk.prepare(wl, plans, ctx.p, lib.oracle)
    real_break = lib.ctft.break_in_place
    real_mul = lib.bridge.multiply_tft

    def bad_break(c, a, plan):
        real_break(c, a, plan)
        a[0] = (a[0] + 1) % P

    bad = SimpleNamespace(
        ctft=SimpleNamespace(break_in_place=bad_break,
                             unbreak_in_place=lib.ctft.unbreak_in_place),
        bridge=SimpleNamespace(multiply_tft=lambda *a: _corrupt(real_mul(*a)),
                               multiply_full_fft=lib.bridge.multiply_full_fft),
        oracle=lib.oracle)
    tally = wk.Tally()
    group = next(g for g in wl.groups if g.path == path)
    group.run(bad, ctx, plans, tally, wk.NoTrace())
    assert tally.attempted == group.reps
    assert tally.failed == group.reps


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_same_inputs_and_ops(name):
    a, b = tiny(name, 11), tiny(name, 11)
    assert inputs(a) == inputs(b)
    assert inputs(a) != inputs(tiny(name, 12))
    tally_a, ops_a, per_a = measure(a)
    tally_b, ops_b, per_b = measure(b)
    assert tally_a.failed == tally_b.failed == 0
    assert ops_a == ops_b and per_a == per_b
    assert min(ops_a[1:]) > 0


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_matches_untraced(name):
    wl = tiny(name, 7)
    tally, ops, per_group = measure(wl)
    refs = [g.product.ref for g in wl.groups if isinstance(g, wk.ProductGroup)]
    tracer = spans.Tracer()
    traced_tally, traced_ops, traced_per_group = measure(wl, tracer)
    # every traced output was checked against the untraced run's first output
    assert [g.product.ref for g in wl.groups if isinstance(g, wk.ProductGroup)] == refs
    assert tally.failed == traced_tally.failed == 0
    assert traced_tally.attempted == tally.attempted
    assert (traced_ops, traced_per_group) == (ops, per_group)
    agg = tracer.aggregate(1)
    values, _ = run.layer_metrics(agg, ops, 0.0, run.useful_work(wl))
    assert set(values) == {n for n, _, _ in run.per_layer_spec()}
    assert values["ctft.break.mul"] == 0
    if name == "images-roundtrip":
        assert values["ctft.sergeev_break_s"] > 0 and values["ctft.alloc"] > 0
        assert values["transform.fft_in_place_s"] == 0
    else:
        assert values["transform.fft_in_place.mul"] > 0
        assert values["bridge.scale_by_powers.mul"] > 0


def test_spans_keep_the_defining_module_and_self_time():
    tracer = spans.Tracer()
    _, lib, ctx, _ = run.fresh_setup((), tracer)
    assert hasattr(lib.ctft.dwt, "__wrapped__")
    assert lib.bridge.scale_by_powers.__wrapped__ is lib.transform.scale_by_powers.__wrapped__
    tracer.enter("bench.mul_brtft")
    lib.bridge.multiply_tft(ctx, [1, 2, 3], [4, 5, 6, 7], "bitreversed")
    tracer.leave()
    agg = tracer.aggregate(1)
    assert agg.get("bridge.scale_by_powers", "calls") > 0
    assert agg.get("transform.dwt", "calls") > 0
    assert agg.get("ctft.dwt", "calls") == 0
    # self times under a root add up to the root's duration
    under_root = sum(v for (root, _), v in agg.layer_self.items() if root == "bench.mul_brtft")
    assert under_root == pytest.approx(agg.get("bench.mul_brtft", "incl_s"))


def test_benchmark_json_matches_the_metrics_reported():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.per_layer_spec()
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert sorted(w["name"] for w in spec["workloads"]) == NAMES


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "mul-small-many",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
