"""jacarith benchmark: oracle-checked group operations in a closed loop.

    python3 perfbench/run.py --workload table-g8 --seed 1 --seconds 50 --trace 0

One caller issues the group operations of a fixed mix one after another,
each on fresh operands, and times every call.  Operands are random reduced
Mumford pairs bridged to the engine's form, and every result is compared
with the Cantor oracle outside the timed region.  Failures are counted, not
fatal.  With ``--trace 1`` the engine modules are wrapped by a span tracer
and the per-layer metrics are reported instead of the end-to-end ones.

The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
See perfbench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from collections import Counter, defaultdict
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import spans
import summary

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

sys.path.insert(0, str(ROOT / "src"))
import jacarith  # noqa: E402
from jacarith import cantor, hyperelliptic, jacobian  # noqa: E402
from jacarith.field import RandomStream  # noqa: E402


@dataclass(frozen=True)
class Workload:
    name: str
    rep: str  # "a" = table form (RepA), "b0" = point-value form (RepB0)
    p: int
    g: int


WORKLOADS = {w.name: w for w in (
    Workload("table-g8", "a", 1009, 8),
    Workload("table-g12", "a", 1009, 12),
    Workload("table-g16", "a", 1009, 16),
    Workload("points-g10", "b0", 1009, 10),
    Workload("word-g4", "a", 2**31 - 1, 4),
)}

OPS = ("addflip_large", "addflip_small", "add", "negate", "equal_class", "scalar_mul")
TAIL_OPS = OPS[:5]
SCALAR_EVERY = 4  # rounds per scalar_mul sample; the mix repeats in these cycles
# Bit length 4 with two bits set: every scalar costs 3 doublings and 1
# addition, so scalar_mul_ms does not depend on which scalar was drawn.
SCALARS = (9, 10, 12)
SETUP_REPEATS = 5
SWEEP_GENERA = (5, 10, 20, 40)
SWEEP_PRIME = 1009
SWEEP_POINTS = 3


@dataclass
class Round:
    """Operands and oracle answers for one pass through the mix."""

    rng: RandomStream
    m1: cantor.MumfordDivisor
    m2: cantor.MumfordDivisor
    msum: cantor.MumfordDivisor
    neg_sum: cantor.MumfordDivisor  # -(m1 + m2)
    neg_m1: cantor.MumfordDivisor
    xs: jacobian.JacobianPoint  # m1, small form
    ys: jacobian.JacobianPoint
    xl: jacobian.JacobianPoint  # m1, large form
    yl: jacobian.JacobianPoint
    sum_s: jacobian.JacobianPoint  # m1 + m2 bridged, small form
    n: int | None  # scalar for this round's scalar_mul, if it has one
    n_m1: cantor.MumfordDivisor | None


def draw_round(model, curve, rng: RandomStream, index: int) -> Round:
    r = rng.split(f"round{index}")
    m1 = cantor.random_mumford(curve, r.split("m1"))
    m2 = cantor.random_mumford(curve, r.split("m2"))
    msum = cantor.cantor_add(curve, m1, m2)
    n = r.split("n").choice(SCALARS) if index % SCALAR_EVERY == 0 else None
    return Round(r, m1, m2, msum, cantor.cantor_negate(curve, msum),
                 cantor.cantor_negate(curve, m1),
                 cantor.mumford_to_point(model, m1),
                 cantor.mumford_to_point(model, m2),
                 cantor.mumford_to_point(model, m1, jacobian.LARGE),
                 cantor.mumford_to_point(model, m2, jacobian.LARGE),
                 cantor.mumford_to_point(model, msum),
                 n, cantor.cantor_scalar(curve, n, m1) if n else None)


class Recorder:
    """Times group operations and counts those that raise or disagree with
    the oracle."""

    def __init__(self, tracer: spans.Tracer | None):
        self.tracer = tracer
        self.times: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failures: Counter = Counter()
        self.first_error: dict[str, str] = {}
        self.eq_shortcuts = 0
        self.cycle_rates: list[float] = []  # ops per second of op time, per cycle
        self._cycle_ops, self._cycle_s = 0, 0.0

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else nullcontext()

    def _fail(self, kind: str, detail: str) -> None:
        self.failures[kind] += 1
        self.first_error.setdefault(kind, detail)

    def run(self, op: str, call, check):
        """Time one call, then check its result; returns it, or None if it raised."""
        self.attempted += 1
        try:
            with self.span(f"op.{op}"):
                t0 = time.perf_counter()
                out = call()
                elapsed = time.perf_counter() - t0
        except Exception as exc:  # counted as a failed operation; the run goes on
            self._fail(type(exc).__name__, traceback.format_exc())
            return None
        self.times[op].append(elapsed)
        self._cycle_ops += 1
        self._cycle_s += elapsed
        try:
            with self.span("check"):
                ok = check(out)
        except Exception as exc:
            self._fail(type(exc).__name__, traceback.format_exc())
            return out
        if not ok:
            self._fail("OracleMismatch", f"{op} disagrees with the Cantor oracle")
        return out

    def end_cycle(self) -> None:
        if self._cycle_ops:
            self.cycle_rates.append(self._cycle_ops / self._cycle_s)
        self._cycle_ops, self._cycle_s = 0, 0.0

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def run_round(model, rd: Round, rec: Recorder) -> None:
    r = {op: rd.rng.split(op) for op in ("afl", "afs", "add", "neg", "smul")}

    def agrees(want):
        return lambda got: cantor.oracle_compare(model, got, want)

    rec.run("addflip_large",
            lambda: jacobian.addflip_large(model, rd.xl, rd.yl, r["afl"]),
            agrees(rd.neg_sum))
    rec.run("addflip_small",
            lambda: jacobian.addflip_small(model, rd.xs, rd.ys, r["afs"]),
            agrees(rd.neg_sum))
    z = rec.run("add", lambda: jacobian.add(model, rd.xs, rd.ys, r["add"]),
                agrees(rd.msum))
    rec.run("negate", lambda: jacobian.negate(model, rd.xs, r["neg"]),
            agrees(rd.neg_m1))
    if z is not None:
        # same class, different representatives: the engine's sum against
        # the bridged Cantor sum
        rec.eq_shortcuts += z.space == rd.sum_s.space
        rec.run("equal_class", lambda: jacobian.equal_class(model, z, rd.sum_s),
                lambda same: same is True)
    rec.run("equal_class", lambda: jacobian.equal_class(model, rd.xs, rd.ys),
            lambda same: same == (rd.m1 == rd.m2))
    if rd.n is not None:
        rec.run("scalar_mul",
                lambda: jacobian.scalar_mul(model, rd.n, rd.xs, r["smul"]),
                agrees(rd.n_m1))


def set_up(wl: Workload, seed: int, rng: RandomStream):
    """The jacarith gen -> verify --bundle path, then the first round's operands."""
    bundle = hyperelliptic.gen_hyperelliptic(wl.g, wl.p, rng=rng.split("curve"))
    if wl.rep == "b0":
        hyperelliptic.gen_rep_b0(bundle, rng.split("points"))
    path = OUT / f"bundle-{wl.name}-{seed}.json"
    hyperelliptic.save_bundle(bundle, str(path), rep=wl.rep)
    bundle = hyperelliptic.load_bundle(str(path))
    rep, pre = bundle.precomp(wl.rep, rng.split("precomp"))
    model = jacobian.make_large_model(rep, pre, rng.split("model"))
    return bundle, model, draw_round(model, bundle.curve, rng, 0), path


def measure(model, curve, rng: RandomStream, first: Round, seconds: float,
            rec: Recorder) -> int:
    """Closed loop for about `seconds`, in whole cycles of the mix (so
    ops_per_s always sees the same op proportions) and with enough rounds
    that every op in TAIL_OPS has a tail.  A cycle starts only if the last
    one suggests it ends in time, so a run does not overshoot by a cycle.

    Automatic garbage collection is off inside the loop, so that no op
    pays for a collection; the loop collects between rounds instead."""
    start = time.perf_counter()
    rd, rounds, cycle_start = first, 0, start
    gc.disable()
    try:
        while True:
            run_round(model, rd, rec)
            rounds += 1
            if rounds % SCALAR_EVERY == 0:
                rec.end_cycle()
                now = time.perf_counter()
                if (rounds > summary.TAIL_BEYOND
                        and now + (now - cycle_start) - start > seconds):
                    return rounds
                cycle_start = now
            with rec.span("prep"):
                gc.collect()
                rd = draw_round(model, curve, rng, rounds)
    finally:
        gc.enable()


def sweep(seed: int, rec: Recorder) -> float:
    """addflip_large at the genera of acceptance criterion 8; log-log slope."""
    medians = []
    for g in SWEEP_GENERA:
        rng = RandomStream(f"perfbench/sweep/{seed}/g{g}")
        bundle = hyperelliptic.gen_hyperelliptic(g, SWEEP_PRIME, rng=rng.split("curve"))
        curve = bundle.curve
        rep, pre = bundle.precomp("a", with_cubic=False)
        model = jacobian.make_large_model(rep, pre, rng.split("model"),
                                          compute_defl_v=False)
        ms = [cantor.random_mumford(curve, rng.split(f"m{i}")) for i in range(SWEEP_POINTS)]
        pts = [cantor.mumford_to_point(model, m, jacobian.LARGE) for m in ms]
        key = f"sweep_g{g}"
        for i in range(SWEEP_POINTS):
            j = (i + 1) % SWEEP_POINTS
            want = cantor.cantor_negate(curve, cantor.cantor_add(curve, ms[i], ms[j]))
            r = rng.split(f"t{i}")
            rec.run(key, lambda: jacobian.addflip_large(model, pts[i], pts[j], r),
                    lambda got: cantor.oracle_compare(model, got, want))
        medians.append(statistics.median(rec.times[key]))
        del bundle, model, pts
        gc.collect()
    return summary.loglog_slope(SWEEP_GENERA, medians)


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def ops_per_s(rec: Recorder) -> float:
    """Median over the cycles of the mix of ops completed per second of op time."""
    return statistics.median(rec.cycle_rates) if rec.cycle_rates else 0.0


def end_to_end_metrics(setup_s: list[float], rec: Recorder) -> dict:
    out = {"setup_s": metric(statistics.median(setup_s), "s"),
           "ops_per_s": metric(ops_per_s(rec), "1/s")}
    for op in OPS:
        if rec.times[op]:
            out[f"{op}_ms"] = metric(statistics.median(rec.times[op]) * 1e3, "ms")
    for op in TAIL_OPS:
        t = summary.tail(rec.times[op])
        if t is not None:
            out[f"{op}_ms_tail"] = metric(t[0] * 1e3, "ms")
    out["peak_rss_mb"] = metric(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB")
    return out


def per_layer_metrics(tracer: spans.Tracer, rec: Recorder, bundle_bytes: int,
                      tables_bytes: int, attempts_per_call: float, slope: float) -> dict:
    s, selfs = tracer.spans, spans.self_times(tracer.spans)
    op_roots = [sp for sp in s if sp[spans.PARENT] < 0 and sp[spans.NAME].startswith("op.")]
    n_ops = len(op_roots)
    op_time = sum(sp[spans.END] - sp[spans.START] for sp in op_roots)
    in_ops = spans.aggregate(s, selfs, lambda root: root[spans.NAME].startswith("op."))
    in_prep = spans.aggregate(s, selfs, lambda root: root[spans.NAME] == "prep")
    n_prep = sum(1 for sp in s if sp[spans.PARENT] < 0 and sp[spans.NAME] == "prep")
    n_smul = sum(1 for sp in op_roots if sp[spans.NAME] == "op.scalar_mul")
    smul_addflips = spans.aggregate(
        s, selfs, lambda root: root[spans.NAME] == "op.scalar_mul")

    def per_op(name, key="calls"):
        return in_ops[name][key] / n_ops if name in in_ops else 0.0

    def setup_median(name):
        return statistics.median(
            sp[spans.END] - sp[spans.START] for sp in s
            if sp[spans.NAME] == name and s[sp[spans.ROOT]][spans.NAME] == "setup")

    out = {}
    for layer in ("linalg", "curverep", "divisors", "jacobian"):
        own = sum(v["self_s"] for k, v in in_ops.items() if k.startswith(layer + "."))
        out[f"{layer}.self_share"] = metric(own / op_time, "share")
    for name in ("linalg.rref", "linalg.matrix_rank", "curverep.mult_matrix",
                 "curverep.apply_mul", "curverep.divide_raw",
                 "curverep.divide_is_nonzero", "curverep.sum_of_products_dim",
                 "divisors.deflate", "divisors.flip"):
        out[f"{name}.calls"] = metric(per_op(name), "calls/op")
        out[f"{name}.self_s"] = metric(per_op(name, "self_s"), "s/op")
    for name in ("linalg.kernel_basis", "linalg.left_kernel_rows",
                 "linalg.column_echelon", "divisors.is_igs",
                 "jacobian.addflip_large", "jacobian.addflip_small",
                 "jacobian.equal_class"):
        out[f"{name}.calls"] = metric(per_op(name), "calls/op")
    out["linalg.rref.elim_ops"] = metric(per_op("linalg.rref", "elim_ops"), "count/op")
    out["curverep.mult_matrix.bytes"] = metric(per_op("curverep.mult_matrix", "bytes"), "B/op")
    out["divisors.deflate.attempts_per_call"] = metric(attempts_per_call, "attempts/call")
    flips = sum(smul_addflips[k]["calls"] for k in
                ("jacobian.addflip_large", "jacobian.addflip_small") if k in smul_addflips)
    out["jacobian.addflips_per_scalar_mul"] = metric(flips / max(n_smul, 1), "calls/op")
    out["jacobian.addflip_large.loglog_slope"] = metric(slope, "1")
    out["jacobian.make_large_model.s"] = metric(setup_median("jacobian.make_large_model"), "s")
    for name in ("gen_hyperelliptic", "save_bundle", "load_bundle"):
        out[f"hyperelliptic.{name}.s"] = metric(setup_median(f"hyperelliptic.{name}"), "s")
    out["hyperelliptic.bundle_bytes"] = metric(bundle_bytes, "B")
    out["hyperelliptic.tables_bytes"] = metric(tables_bytes, "B")
    bridge = in_prep.get("cantor.mumford_to_point", {"calls": 0, "self_s": 0.0})
    out["cantor.mumford_to_point.calls"] = metric(bridge["calls"] / max(n_prep, 1), "calls/round")
    out["cantor.mumford_to_point.self_s"] = metric(bridge["self_s"] / max(n_prep, 1), "s/round")
    out["cantor.random_mumford.s"] = metric(statistics.median(
        sp[spans.END] - sp[spans.START] for sp in s
        if sp[spans.NAME] == "cantor.random_mumford"), "s")
    out["trace.ops_per_s"] = metric(ops_per_s(rec), "1/s")
    out["failed_ratio"] = metric(rec.failed / rec.attempted, "ratio")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    engine = Path(jacarith.__file__).resolve().parent
    if engine != ROOT / "src" / "jacarith":
        print(f"perfbench: refusing to measure jacarith from {engine}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    tracer = spans.Tracer() if args.trace else None
    if tracer:
        tracer.install(spans.layer_modules())
    rec = Recorder(tracer)
    rng = RandomStream(f"perfbench/{wl.name}/{args.seed}")

    setup_s = []
    try:
        for _ in range(SETUP_REPEATS):
            gc.collect()
            t0 = time.perf_counter()
            with rec.span("setup"):
                bundle, model, first, path = set_up(wl, args.seed, rng)
            setup_s.append(time.perf_counter() - t0)
        bundle_bytes = path.stat().st_size
        path.unlink()
        calls0, attempts0 = model.stats.calls, model.stats.attempts
        rounds = measure(model, bundle.curve, rng, first, args.seconds, rec)
        # RetryStats also sees the deflations of bridging and checking,
        # which draw from the same candidate distribution
        attempts_per_call = ((model.stats.attempts - attempts0)
                             / max(model.stats.calls - calls0, 1))
    finally:
        if tracer:
            tracer.uninstall()
    rec.tracer = None  # the sweep runs untraced, like acceptance criterion 8

    if tracer:
        slope = sweep(args.seed, rec)
        metrics = per_layer_metrics(tracer, rec, bundle_bytes, bundle.rep_a.tables.nbytes,
                                    attempts_per_call, slope)
        tracer.dump(OUT / f"trace-{wl.name}-{args.seed}.json")
    else:
        metrics = end_to_end_metrics(setup_s, rec)

    details = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace,
        "rounds": rounds, "setup_s": setup_s,
        "samples": {op: len(rec.times[op]) for op in OPS},
        "times_ms": {op: [round(t * 1e3, 3) for t in ts] for op, ts in rec.times.items()},
        "tail_percentile": {op: t[1] for op in TAIL_OPS
                            if (t := summary.tail(rec.times[op])) is not None},
        "failed_ratio": rec.failed / rec.attempted,
        "failures": dict(rec.failures),
        "equal_class_shortcut_hits": rec.eq_shortcuts,
    }
    for kind, text in rec.first_error.items():
        print(f"first {kind}:\n{text}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name:44s} {m['value']:>14.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps({"details": details}))
    print(json.dumps({"correct": rec.failed == 0, "attempted": rec.attempted,
                      "failed": rec.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
