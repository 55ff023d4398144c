"""Command-line driver: generate curve bundles, run verification suites,
and measure complexity scaling.

Reports are JSON lines on stdout (one object per case, with the seed that
reproduces it) plus a human-readable table on stderr.  Exit code 0 means
every requested case passed, 1 that a case failed (a run the engine gave up
on, because the data broke one of its checks, is a failed ``aborted`` case),
and 2 that the arguments or an input file were rejected.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import statistics
import sys
import time

import numpy as np

from . import cantor, divisors, jacobian, linalg
from .curverep import DegreeLawViolation, product, validate_rep
from .field import RandomStream
from .hyperelliptic import (CurveBundle, gen_hyperelliptic, gen_paper_fixture,
                            gen_rep_b0, load_bundle, save_bundle)
from .jacobian import LARGE, SMALL


class Reporter:
    def __init__(self, suite: str, seed: str):
        self.suite = suite
        self.seed = seed
        self.rows = []

    def case(self, name: str, ok: bool, **details) -> None:
        self.rows.append({"suite": self.suite, "case": name, "pass": bool(ok),
                          "details": details, "seed": self.seed})

    def flush(self) -> bool:
        for row in self.rows:
            print(json.dumps(row))
        width = max((len(r["case"]) for r in self.rows), default=4)
        print(f"\n{self.suite} suite (seed {self.seed})", file=sys.stderr)
        for row in self.rows:
            status = "pass" if row["pass"] else "FAIL"
            detail = ", ".join(f"{k}={v}" for k, v in row["details"].items())
            print(f"  {row['case']:<{width}}  {status}  {detail}", file=sys.stderr)
        ok = all(r["pass"] for r in self.rows)
        total = len(self.rows)
        good = sum(r["pass"] for r in self.rows)
        print(f"  {good}/{total} cases passed", file=sys.stderr)
        return ok


def _random_section(field, space, rng) -> np.ndarray:
    while True:
        s = divisors.sigma_random_element(field, space, rng)
        if np.count_nonzero(s):
            return s


def random_points(model, tag: str, count: int, rng: RandomStream) -> list:
    """Oracle-free random classes: walk the flip graph from the identity."""
    rep = model.rep
    want = model.d if tag == SMALL else 2 * model.d
    out = []
    cur = jacobian.zero_point(model, SMALL).divisor
    i = 0
    while len(out) < count:
        s = _random_section(rep.field, cur.space, rng.split(f"s{i}"))
        cur = divisors.flip(rep, cur, rng.split(f"f{i}"), s=s, stats=model.stats)
        if cur.degree == want:
            out.append(jacobian.JacobianPoint(tag, cur))
        i += 1
    return out


def suite_fixture(args, rng: RandomStream) -> Reporter:
    rep_report = Reporter("fixture", rng.seed)
    bundle = gen_paper_fixture()
    rep = bundle.rep_a
    rep_report.case("tables validate", validate_rep(rep).passed)
    basis = np.eye(rep.delta, dtype=rep.tables.dtype)

    def unit_prime(k):
        u = np.zeros(rep.delta_prime, dtype=rep.tables.dtype)
        u[k] = 1
        return u

    got = product(rep, basis[:, 1], basis[:, 2])
    rep_report.case("x*y lands on the 5th quadratic basis vector",
                    bool(np.array_equal(got, unit_prime(4))), value=got.tolist())
    got = product(rep, basis[:, 2], basis[:, 2])
    expect = (unit_prime(0) + unit_prime(5)) % rep.field.p
    rep_report.case("y*y equals 1 + x^3",
                    bool(np.array_equal(got, expect)), value=got.tolist())
    ok = all(
        np.array_equal(product(rep, basis[:, 0], basis[:, j]), unit_prime(j))
        for j in range(rep.delta))
    rep_report.case("1*T_j embeds V into V'", ok)
    return rep_report


def _load(args) -> CurveBundle:
    if not args.bundle:
        raise ValueError("this suite needs --bundle")
    return load_bundle(args.bundle)


def _model_for(bundle: CurveBundle, args, rng: RandomStream):
    tag_rep = args.rep or bundle.rep_tag
    if tag_rep == "b0" and bundle.rep_b0 is None:
        gen_rep_b0(bundle, rng.split("points"))
    return bundle.large_model(rng.split("model"), tag=tag_rep)


def _las_vegas_case(report: Reporter, model) -> None:
    """Every Las Vegas call of the model, deflations and flips alike."""
    report.case("las-vegas-retries", True, las_vegas_calls=model.stats.calls,
                mean_attempts=round(model.stats.mean_attempts, 3))


def suite_axioms(args, rng: RandomStream) -> Reporter:
    report = Reporter("axioms", rng.seed)
    bundle = _load(args)
    model = _model_for(bundle, args, rng)
    tag = getattr(args, "tag", SMALL) or SMALL
    trials = args.trials
    pts = random_points(model, tag, 3 * trials, rng.split("points"))
    zero = jacobian.zero_point(model, tag)

    fails = {"identity": 0, "inverse": 0, "commutativity": 0}
    for i in range(trials):
        x, y = pts[3 * i], pts[3 * i + 1]
        r = rng.split(f"pair{i}")
        if not jacobian.equal_class(model, jacobian.add(model, x, zero, r), x):
            fails["identity"] += 1
        if not jacobian.equal_class(
                model, jacobian.add(model, x, jacobian.negate(model, x, r), r), zero):
            fails["inverse"] += 1
        if not jacobian.equal_class(model,
                                    jacobian.addflip(model, x, y, r),
                                    jacobian.addflip(model, y, x, r)):
            fails["commutativity"] += 1
    for name, bad in fails.items():
        report.case(name, bad == 0, trials=trials, failures=bad)

    bad = 0
    for i in range(trials):
        x, y, z = pts[3 * i], pts[3 * i + 1], pts[3 * i + 2]
        r = rng.split(f"triple{i}")
        lhs = jacobian.add(model, jacobian.add(model, x, y, r), z, r)
        rhs = jacobian.add(model, x, jacobian.add(model, y, z, r), r)
        if not jacobian.equal_class(model, lhs, rhs):
            bad += 1
    report.case("associativity", bad == 0, trials=trials, failures=bad)
    _las_vegas_case(report, model)
    return report


def suite_oracle(args, rng: RandomStream) -> Reporter:
    report = Reporter("oracle", rng.seed)
    bundle = _load(args)
    model = _model_for(bundle, args, rng)
    curve = bundle.curve
    trials = args.trials
    fails = {"addflip-small": 0, "addflip-large": 0, "add": 0, "negate": 0,
             "scalar-mul": 0}
    for i in range(trials):
        r = rng.split(f"trial{i}")
        m1 = cantor.random_mumford(curve, r.split("m1"))
        m2 = cantor.random_mumford(curve, r.split("m2"))
        xs = cantor.mumford_to_point(model, m1, SMALL)
        ys = cantor.mumford_to_point(model, m2, SMALL)
        xl = cantor.mumford_to_point(model, m1, LARGE)
        yl = cantor.mumford_to_point(model, m2, LARGE)
        msum = cantor.cantor_add(curve, m1, m2)
        mneg_sum = cantor.cantor_negate(curve, msum)

        got = jacobian.addflip_small(model, xs, ys, r.split("afs"))
        fails["addflip-small"] += not cantor.oracle_compare(model, got, mneg_sum)
        got = jacobian.addflip_large(model, xl, yl, r.split("afl"))
        fails["addflip-large"] += not cantor.oracle_compare(model, got, mneg_sum)
        got = jacobian.add(model, xs, ys, r.split("add"))
        fails["add"] += not cantor.oracle_compare(model, got, msum)
        got = jacobian.negate(model, xs, r.split("neg"))
        fails["negate"] += not cantor.oracle_compare(
            model, got, cantor.cantor_negate(curve, m1))
        n = r.split("n").randint(1, 50)
        got = jacobian.scalar_mul(model, n, xs, r.split("smul"))
        fails["scalar-mul"] += not cantor.oracle_compare(
            model, got, cantor.cantor_scalar(curve, n, m1))
    for name, bad in fails.items():
        report.case(name, bad == 0, trials=trials, failures=bad)
    _las_vegas_case(report, model)
    return report


def suite_igs_stats(args, rng: RandomStream) -> Reporter:
    report = Reporter("igs-stats", rng.seed)
    bundle = _load(args)
    model = _model_for(bundle, args, rng)
    rep = model.rep
    trials = args.trials
    pool_size = max(8, min(64, trials // 16))
    pool = [p.divisor for p in random_points(model, SMALL, pool_size, rng.split("pool"))]

    h = divisors.igs_size_h(rep.Delta, model.d, rep.field.sigma_size)
    successes = 0
    for i in range(trials):
        d = pool[i % len(pool)]
        cand = divisors.random_igs_candidate(rep, d, rng.split(f"cand{i}"))
        successes += divisors.is_igs(rep, cand, d.degree)
    frac = successes / trials
    report.case("igs-success-fraction", frac >= 0.45, trials=trials,
                fraction=round(frac, 4), h=h, sigma=rep.field.sigma_size)

    stats = divisors.RetryStats()
    for i, d in enumerate(pool * max(1, 64 // len(pool))):
        divisors.deflate(rep, d, rng.split(f"defl{i}"), stats)
    report.case("deflate-mean-attempts", stats.mean_attempts <= 2.5,
                calls=stats.calls, mean_attempts=round(stats.mean_attempts, 3))
    return report


def suite_membership(args, rng: RandomStream) -> Reporter:
    report = Reporter("membership", rng.seed)
    bundle = _load(args)
    model = _model_for(bundle, args, rng)
    rep = model.rep
    trials = args.trials
    pts = random_points(model, SMALL, trials, rng.split("points"))

    false_neg = 0
    for i, pt in enumerate(pts):
        if not divisors.membership_test(rep, pt.space, model.defl_v,
                                        rng.split(f"gen{i}")):
            false_neg += 1
    report.case("genuine-spaces-accepted", false_neg == 0, trials=trials,
                failures=false_neg)

    false_pos = 0
    full = rep.full_v()
    for i, pt in enumerate(pts):
        r = rng.split(f"pert{i}")
        while True:
            basis = pt.space.basis.copy()
            basis[:, -1] = _random_section(rep.field, full, r)
            cand = linalg.column_echelon(rep.field, basis)
            if cand.dim == pt.space.dim and cand != pt.space:
                break
        if divisors.membership_test(rep, cand, model.defl_v, r.split("test")):
            false_pos += 1
    report.case("perturbed-spaces-rejected", false_pos == 0, trials=trials,
                failures=false_pos)
    _las_vegas_case(report, model)
    return report


SUITES = {
    "fixture": suite_fixture,
    "axioms": suite_axioms,
    "oracle": suite_oracle,
    "igs-stats": suite_igs_stats,
    "membership": suite_membership,
}


def cmd_gen(args) -> int:
    rng = RandomStream(args.seed)
    bundle = gen_hyperelliptic(args.genus, args.prime, rng=rng.split("curve"))
    if args.rep == "b0":
        gen_rep_b0(bundle, rng.split("points"))
    save_bundle(bundle, args.out, rep=args.rep)
    print(json.dumps({"written": args.out, "g": bundle.g, "p": bundle.p,
                      "Delta": bundle.Delta, "d": bundle.d, "rep": args.rep,
                      "seed": str(args.seed)}))
    return 0


def cmd_verify(args) -> int:
    rng = RandomStream(args.seed).split(args.suite)
    report = SUITES[args.suite](args, rng)
    return 0 if report.flush() else 1


SCALE_SCALAR = 9  # timed by scale --op scalar-mul: bit length 4, two bits set

# op name -> (size tag of its operands, call on model, x, y, stream)
OPS = {
    "addflip-large": (LARGE, lambda m, x, y, r: jacobian.addflip_large(m, x, y, r)),
    "addflip-small": (SMALL, lambda m, x, y, r: jacobian.addflip_small(m, x, y, r)),
    "add": (SMALL, lambda m, x, y, r: jacobian.add(m, x, y, r)),
    "negate": (SMALL, lambda m, x, y, r: jacobian.negate(m, x, r)),
    "equal": (SMALL, lambda m, x, y, r: jacobian.equal_class(m, x, y)),
    "flip": (SMALL, lambda m, x, y, r: divisors.flip(m.rep, x.divisor, r, stats=m.stats)),
    "scalar-mul": (SMALL, lambda m, x, y, r: jacobian.scalar_mul(m, SCALE_SCALAR, x, r)),
}


def _time_op(model, op: str, pts, rng: RandomStream, trials: int) -> list:
    call = OPS[op][1]
    times = []
    for i in range(trials):
        x, y = pts[2 * i], pts[2 * i + 1]
        r = rng.split(f"op{i}")
        t0 = time.perf_counter_ns()
        call(model, x, y, r)
        times.append(time.perf_counter_ns() - t0)
    return times


def cmd_scale(args) -> int:
    genera = [int(tok) for tok in args.genus_list.split(",") if tok]
    if not genera:
        raise ValueError(f"--genus-list names no genus: {args.genus_list!r}")
    tag = OPS[args.op][0]
    rows = []
    for g in genera:
        rng = RandomStream(args.seed).split(f"g{g}")
        bundle = gen_hyperelliptic(g, args.prime, rng=rng.split("curve"))
        model = bundle.large_model(rng.split("model"), compute_defl_v=False)
        pts = random_points(model, tag, 2 * args.trials, rng.split("points"))
        times = _time_op(model, args.op, pts, rng.split("time"), args.trials)
        med = int(statistics.median(times))
        rows.append((g, med))
        print(json.dumps({"suite": "scale", "case": f"g={g}",
                          "pass": True,
                          "details": {"op": args.op, "median_ns": med,
                                      "trials": args.trials},
                          "seed": str(args.seed)}))
    slope = None
    if len(rows) >= 2:
        xs = [math.log(g) for g, _ in rows]
        ys = [math.log(t) for _, t in rows]
        n = len(xs)
        sx, sy = sum(xs), sum(ys)
        sxx = sum(x * x for x in xs)
        sxy = sum(x * y for x, y in zip(xs, ys))
        slope = (n * sxy - sx * sy) / (n * sxx - sx * sx)
    print(json.dumps({"suite": "scale", "case": "loglog-slope", "pass": True,
                      "details": {"op": args.op,
                                  "slope": round(slope, 4) if slope is not None else "n/a"},
                      "seed": str(args.seed)}))
    if args.out_csv:
        with open(args.out_csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["genus", "op", "median_ns", "trials"])
            for g, med in rows:
                writer.writerow([g, args.op, med, args.trials])
    print(f"log-log slope: {slope if slope is not None else 'n/a'}", file=sys.stderr)
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="jacarith",
        description="divisor-class group arithmetic: generate, verify, benchmark")
    sub = ap.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a curve bundle file")
    gen.add_argument("--genus", type=int, required=True)
    gen.add_argument("--prime", type=int, required=True)
    gen.add_argument("--seed", default="0")
    gen.add_argument("--rep", choices=("a", "b0"), default="a")
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_gen)

    ver = sub.add_parser("verify", help="run a verification suite")
    ver.add_argument("--bundle")
    ver.add_argument("--suite", choices=sorted(SUITES), required=True)
    ver.add_argument("--trials", type=_positive_int, default=100)
    ver.add_argument("--seed", default="0")
    ver.add_argument("--tag", choices=(SMALL, LARGE), default=SMALL)
    ver.add_argument("--rep", choices=("a", "b0"),
                     help="representation to run (default: the bundle file's)")
    ver.set_defaults(func=cmd_verify)

    sc = sub.add_parser("scale", help="measure operation time against genus")
    sc.add_argument("--genus-list", default="5,10,20,40")
    sc.add_argument("--prime", type=int, default=1009)
    sc.add_argument("--op", choices=OPS, default="addflip-large")
    sc.add_argument("--trials", type=_positive_int, default=5)
    sc.add_argument("--seed", default="0")
    sc.add_argument("--out-csv")
    sc.set_defaults(func=cmd_scale)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (divisors.LasVegasExhausted, DegreeLawViolation) as exc:
        # the engine's own checks caught data that is not what it claims
        report = Reporter(getattr(args, "suite", args.command), str(args.seed))
        report.case("aborted", False, error=type(exc).__name__, message=str(exc))
        report.flush()
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
