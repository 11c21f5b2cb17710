"""The benchmark's workloads: seeded inputs, the timed calls, and their checks.

A workload is a fixed list of groups.  A group is one input on one path; its
``run`` makes ``reps`` identical calls, returns the seconds each call spent
inside the library and checks every output outside the timed region, against
``tftlib.oracle`` and against the other paths.

Why these workloads (the per-layer metric each one should move is in README):

``mul-pow2-edges``  products at 2^k - 1, 2^k, 2^k + 1: the padded FFT doubles
                    across 2^k and the TFT must not; the per-block transform
                    kernels do most of the work.  At 2^k the break is a no-op,
                    at 2^k - 1 it has k blocks.
``images-roundtrip`` break into the negacyclic images and unbreak, with each
                    of the three engines: the paper's in-place break does all
                    of the work and no block transform runs.  Lengths vary the
                    popcount (2^k - 1, 0b1010...1, 2^k + 1); powers of two are
                    left out because every engine is a no-op there.
``mul-small-many``  many products of random lengths in [2, 512]: per-call and
                    per-stage overheads (plans, roots, twiddle powers, tiny
                    blocks) dominate, and the TFT does not beat padding.
"""

from __future__ import annotations

import math
import random
import statistics
import time
from dataclasses import dataclass, field

POW2_EDGE_KS = (8, 10, 12)
IMAGE_KS = (8, 10, 12, 14, 16)
SMALL_PRODUCTS = 240
SMALL_MAX = 512

MUL_PATHS = ("mul_fft", "mul_ctft", "mul_brtft")
IMAGE_PATHS = ("images_mateer", "images_new", "images_sergeev")

# The gated throughput metrics are shared by all workloads: each names the
# product path and the image engine it stands for, and a workload reports the
# one it runs.  Both members of a slot play the same part: the padded N-slot
# baseline, the paper's break_in_place, the alternative in-place route.
SLOTS = {
    "fft_or_mateer.coef_per_s": ("mul_fft", "images_mateer"),
    "ctft_or_new.coef_per_s": ("mul_ctft", "images_new"),
    "brtft_or_sergeev.coef_per_s": ("mul_brtft", "images_sergeev"),
}

clock = time.perf_counter


class Tally:
    """Outputs verified and outputs found wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1


class NoTrace:
    """Stand-in for :class:`spans.Tracer` in the untraced run."""

    def enter(self, name: str) -> None:
        pass

    def leave(self) -> None:
        pass


def _counts(ctx) -> tuple[int, int, int]:
    ops = ctx.ops
    return ops.mul, ops.pow2, ops.add


def _since(ctx, before) -> tuple[int, int, int]:
    return tuple(now - then for now, then in zip(_counts(ctx), before))


def _reps(n: int, budget: int) -> int:
    # repeat small inputs so a round spends about as long on them as on large ones
    return max(1, budget >> (n - 1).bit_length())


def _poly(rng: random.Random, length: int, p: int) -> list[int]:
    coeffs = [rng.randrange(p) for _ in range(length)]
    coeffs[-1] = rng.randrange(1, p)  # nonzero leading coefficient
    return coeffs


# products -------------------------------------------------------------------

@dataclass
class Product:
    """Operands of one product and the oracle's view of their product.

    The first output of any path is checked with Horner evaluation at two
    seeded points; every later output, from any path, must equal it exactly.
    """

    f: list[int]
    g: list[int]
    points: tuple[int, ...]
    p: int
    want: tuple[int, ...] = ()
    ref: list[int] | None = None

    @property
    def n(self) -> int:
        return len(self.f) + len(self.g) - 1

    def prepare(self, oracle) -> None:
        p = self.p
        self.want = tuple(oracle.naive_eval(self.f, r, p) * oracle.naive_eval(self.g, r, p) % p
                          for r in self.points)

    def check(self, h, oracle) -> bool:
        if self.ref is not None:
            return h == self.ref
        ok = (isinstance(h, list) and len(h) == self.n
              and all(oracle.naive_eval(h, r, self.p) == w
                      for r, w in zip(self.points, self.want)))
        if ok:
            self.ref = h
        return ok


def _multiply(lib, path):
    bridge = lib.bridge
    if path == "mul_fft":
        return bridge.multiply_full_fft
    route = "cyclotomic" if path == "mul_ctft" else "bitreversed"
    mul_tft = bridge.multiply_tft
    return lambda ctx, f, g: mul_tft(ctx, f, g, route)


@dataclass
class ProductGroup:
    path: str
    product: Product
    reps: int
    n: int = field(init=False)
    ops: tuple[int, int, int] | None = None  # (mul, pow2, add) of one call

    def __post_init__(self):
        self.n = self.product.n

    def run(self, lib, ctx, plans, tally: Tally, tracer) -> list[float]:
        call = _multiply(lib, self.path)
        pr = self.product
        f, g = pr.f, pr.g
        samples = []
        for _ in range(self.reps):
            before = _counts(ctx)
            tracer.enter("bench." + self.path)
            t0 = clock()
            h = call(ctx, f, g)
            samples.append(clock() - t0)
            tracer.leave()
            self.ops = _since(ctx, before)
            tally.record(pr.check(h, lib.oracle))
        return samples


# images ---------------------------------------------------------------------

def mateer_images(ctft, ctx, a: list[int], plan) -> None:
    """The mateer engine's share of ``ctft_forward``: fill a tracked N-slot
    buffer, split it, copy the images back (lengths here are never powers of
    two, so there are always at least two blocks)."""
    buf = ctx.alloc(plan.N)
    for t in range(plan.n):
        buf[t] = a[t]
    ctft.mateer_break(ctx, buf, plan)
    for i in range(1, plan.s + 1):
        o = plan.offset(i)
        ni = plan.size(i)
        for t in range(ni):
            a[o + t] = buf[ni + t]


def _engine(lib, path):
    ctft = lib.ctft
    if path == "images_new":
        return ctft.break_in_place
    if path == "images_sergeev":
        return ctft.sergeev_break
    return lambda ctx, a, plan: mateer_images(ctft, ctx, a, plan)


@dataclass
class ImageGroup:
    """Break then unbreak one buffer; the images and the round trip are both
    checked on every repetition."""

    path: str
    x: list[int]
    images: list[int]
    reps: int
    n: int = field(init=False)
    ops: tuple[int, int, int] | None = None  # (mul, pow2, add) of one round trip

    def __post_init__(self):
        self.n = len(self.x)

    def run(self, lib, ctx, plans, tally: Tally, tracer) -> list[float]:
        brk = _engine(lib, self.path)
        unbreak = lib.ctft.unbreak_in_place
        plan = plans[self.n]
        root = "bench." + self.path
        x = self.x
        a = list(x)
        samples = []
        for _ in range(self.reps):
            before = _counts(ctx)
            tracer.enter(root)
            t0 = clock()
            brk(ctx, a, plan)
            spent = clock() - t0
            tracer.leave()
            ok = a == self.images
            tracer.enter(root)
            t0 = clock()
            unbreak(ctx, a, plan)
            samples.append(spent + clock() - t0)
            tracer.leave()
            self.ops = _since(ctx, before)
            ok = ok and a == x
            tally.record(ok)
            if not ok:
                a[:] = x
        return samples


def image_oracle(x: list[int], plan, p: int, oracle) -> list[int]:
    """Concatenated f mod (z^(n_i) + 1), block by block, by naive folding."""
    out: list[int] = []
    for i in range(1, plan.s + 1):
        out.extend(oracle.naive_mod_reduce(x, plan.size(i), p - 1, p))
    return out


# workload definitions -------------------------------------------------------

@dataclass
class Workload:
    name: str
    paths: tuple[str, ...]
    groups: list
    plan_lengths: tuple[int, ...]
    per_length: bool  # geometric mean over lengths, else one total for the call list


def pow2_edge_lengths(ks) -> list[int]:
    return [n for k in ks for n in (2**k - 1, 2**k, 2**k + 1)]


def image_lengths(ks) -> list[int]:
    # (2^k - 1) // 3 is 0b1010...1 with k - 1 bits for even k
    return [n for k in ks for n in (2**k - 1, (2**k - 1) // 3, 2**k + 1)]


def _points(rng, p):
    return (rng.randrange(2, p), rng.randrange(2, p))


def mul_pow2_edges(seed: int, p: int, ks=POW2_EDGE_KS, budget: int = 1 << 12) -> Workload:
    rng = random.Random(seed)
    groups = []
    for n in pow2_edge_lengths(ks):
        df = (n - 1) // 2
        pr = Product(_poly(rng, df + 1, p), _poly(rng, n - df, p), _points(rng, p), p)
        groups += [ProductGroup(path, pr, _reps(n, budget)) for path in MUL_PATHS]
    return Workload("mul-pow2-edges", MUL_PATHS, groups, (), True)


def mul_small_many(seed: int, p: int, count: int = SMALL_PRODUCTS,
                   max_len: int = SMALL_MAX) -> Workload:
    rng = random.Random(seed)
    # one random length in each of `count` equal strata of [2, max_len], so the
    # mix of lengths, and with it the throughput, barely moves with the seed
    span = max_len - 1
    lengths = [2 + int((i + rng.random()) * span / count) for i in range(count)]
    rng.shuffle(lengths)
    groups = []
    for n in lengths:
        df = rng.randrange(n)
        pr = Product(_poly(rng, df + 1, p), _poly(rng, n - df, p), _points(rng, p), p)
        groups += [ProductGroup(path, pr, 1) for path in MUL_PATHS]
    return Workload("mul-small-many", MUL_PATHS, groups, (), False)


def images_roundtrip(seed: int, p: int, ks=IMAGE_KS, budget: int = 1 << 14) -> Workload:
    rng = random.Random(seed)
    groups = []
    lengths = image_lengths(ks)
    for n in lengths:
        x = [rng.randrange(p) for _ in range(n)]
        groups += [ImageGroup(path, x, [], _reps(n, budget)) for path in IMAGE_PATHS]
    return Workload("images-roundtrip", IMAGE_PATHS, groups, tuple(lengths), True)


WORKLOADS = {
    "mul-pow2-edges": mul_pow2_edges,
    "images-roundtrip": images_roundtrip,
    "mul-small-many": mul_small_many,
}
# lengths whose plans a workload reuses, built during set-up
PLAN_LENGTHS = {
    "mul-pow2-edges": (),
    "images-roundtrip": tuple(image_lengths(IMAGE_KS)),
    "mul-small-many": (),
}


def prepare(wl: Workload, plans, p: int, oracle) -> None:
    """Oracle work done once, before any timing."""
    images = {}
    for g in wl.groups:
        if isinstance(g, ProductGroup):
            if not g.product.want:
                g.product.prepare(oracle)
        else:
            if g.n not in images:
                images[g.n] = image_oracle(g.x, plans[g.n], p, oracle)
            g.images = images[g.n]


# timing ---------------------------------------------------------------------

# Machine-speed reference ----------------------------------------------------
#
# Shared machines slow down in phases that last from seconds to minutes: on a
# shared 2-core virtual machine the same call took up to 1.6 times as long
# from one run to the next, at the median and at the fastest sample alike.  So
# the benchmark times a fixed plain-Python kernel, kept apart from tftlib,
# every REF_EVERY seconds through each round, and divides the round's call
# times by the round's median kernel time.  Times are then reported in
# nominal seconds: seconds on a machine that runs the kernel in REF_NOMINAL_S.
# A change to tftlib moves the call times and not the kernel's.

REF_EVERY = 0.05
REF_NOMINAL_S = 1e-3
_REF_INPUT = tuple(i * 2654435761 % 2013265921 for i in range(512))


def reference_kernel(a: list[int], p: int = 2013265921) -> None:
    """Radix-2 butterflies over a list in plain Python: the same kind of
    interpreter work as the library."""
    n = len(a)
    h = n >> 1
    while h:
        for s in range(0, n, 2 * h):
            for k in range(s, s + h):
                u = a[k]
                v = a[k + h] * 3 % p
                a[k] = (u + v) % p
                a[k + h] = (u - v) % p
        h >>= 1


def reference_seconds() -> float:
    a = list(_REF_INPUT)
    t0 = clock()
    reference_kernel(a)
    return clock() - t0


@dataclass
class Round:
    """Seconds of each call, per group, and the reference kernel's seconds."""

    samples: list[list[float]]
    refs: list[float]

    @property
    def scale(self) -> float:
        return REF_NOMINAL_S / statistics.median(self.refs)

    def nominal_seconds(self) -> float:
        return self.scale * sum(sum(s) for s in self.samples)


def run_rounds(wl: Workload, lib, ctx, plans, tally: Tally, seconds: float,
               tracer=None, min_rounds: int = 1, between=None) -> list[Round]:
    """Pass over every group in a fixed order, round after round.

    A new round starts only while it is expected to end within `seconds`;
    at least `min_rounds` run, and `between` is called after each.  The
    reference kernel is timed at the start and end of each round and between
    groups every REF_EVERY seconds.
    """
    tracer = tracer or NoTrace()
    rounds = []
    start = clock()
    while True:
        samples = []
        refs = [reference_seconds()]
        last = clock()
        for g in wl.groups:
            samples.append(g.run(lib, ctx, plans, tally, tracer))
            if clock() - last > REF_EVERY:
                refs.append(reference_seconds())
                last = clock()
        refs.append(reference_seconds())
        rounds.append(Round(samples, refs))
        if between is not None:
            between()
        elapsed = clock() - start
        if len(rounds) >= min_rounds and elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            return rounds


def per_call(wl: Workload, rounds: list[Round], nominal: bool = True) -> list[float]:
    """Seconds per call of each group: the median of its samples in a round,
    in nominal seconds unless `nominal` is false, then the median over rounds."""
    return [statistics.median(statistics.median(r.samples[i]) * (r.scale if nominal else 1.0)
                              for r in rounds)
            for i in range(len(wl.groups))]


def throughput(wl: Workload, rounds: list[Round], nominal: bool = True) -> dict[str, float]:
    """Coefficients per second for each path the workload runs.

    Per-length workloads: geometric mean over lengths of n / (seconds per
    call), so every length weighs the same.  Otherwise the whole call list is
    one group: total n / total seconds per call.
    """
    secs = per_call(wl, rounds, nominal)
    out = {}
    for path in wl.paths:
        idx = [i for i, g in enumerate(wl.groups) if g.path == path]
        if wl.per_length:
            logs = [math.log(wl.groups[i].n / secs[i]) for i in idx]
            out[path] = math.exp(sum(logs) / len(logs))
        else:
            out[path] = sum(wl.groups[i].n for i in idx) / sum(secs[i] for i in idx)
    return out
