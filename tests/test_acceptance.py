"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  Every check is exact (no tolerances) except the
statistical bound of criterion 5 and the timing-fit band of criterion 8,
whose thresholds are stated inline.
"""

import math
import statistics
import time

import numpy as np

import jacarith as ja
from jacarith import divisors, jacobian, linalg
from jacarith.cli import random_points


def _line(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"\nACCEPTANCE {num} {name}: {status}{suffix}")


_BUNDLES = {}
_MODELS = {}


def _bundle(g: int, p: int = 1009):
    key = (g, p)
    if key not in _BUNDLES:
        _BUNDLES[key] = ja.gen_hyperelliptic(g, p, rng=ja.RandomStream(f"acc-{g}-{p}"))
    return _BUNDLES[key]


def _model(g: int, p: int = 1009):
    key = (g, p)
    if key not in _MODELS:
        _MODELS[key] = _bundle(g, p).large_model(ja.RandomStream(f"acc-model-{g}-{p}"))
    return _MODELS[key]


def test_criterion_1_paper_fixture_exact():
    t0 = time.perf_counter()
    bundle = ja.gen_paper_fixture()
    rep = bundle.rep_a
    e = np.eye(rep.delta, dtype=np.int64)
    u = np.eye(rep.delta_prime, dtype=np.int64)
    ok = (np.array_equal(ja.product(rep, e[:, 1], e[:, 2]), u[:, 4])
          and np.array_equal(ja.product(rep, e[:, 2], e[:, 2]),
                             (u[:, 0] + u[:, 5]) % rep.field.p))
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    _line(1, "paper fixture products exact", ok, f"{elapsed * 1000:.1f} ms")
    assert ok


def test_criterion_2_oracle_equivalence():
    failures = []
    for g in (1, 2, 3, 4):
        bundle, model = _bundle(g), _model(g)
        curve = bundle.curve
        rng = ja.RandomStream(f"acc-oracle-{g}")
        for i in range(100):
            r = rng.split(i)
            m1 = ja.random_mumford(curve, r.split("m1"))
            m2 = ja.random_mumford(curve, r.split("m2"))
            xs = ja.mumford_to_point(model, m1)
            ys = ja.mumford_to_point(model, m2)
            xl = ja.mumford_to_point(model, m1, ja.LARGE)
            yl = ja.mumford_to_point(model, m2, ja.LARGE)
            msum = ja.cantor_add(curve, m1, m2)
            mneg = ja.cantor_negate(curve, msum)

            checks = [
                ("addflip-small", ja.addflip_small(model, xs, ys, r.split("a")), mneg),
                ("addflip-large", ja.addflip_large(model, xl, yl, r.split("b")), mneg),
                ("add", ja.add(model, xs, ys, r.split("c")), msum),
                ("negate", ja.negate(model, xs, r.split("d")),
                 ja.cantor_negate(curve, m1)),
            ]
            n = r.split("n").randint(1, 50)
            checks.append(("scalar-mul",
                           ja.scalar_mul(model, n, xs, r.split("e")),
                           ja.cantor_scalar(curve, n, m1)))
            for op, got, want in checks:
                if not ja.oracle_compare(model, got, want):
                    failures.append((g, i, op))
    ok = not failures
    _line(2, "oracle equivalence (g=1..4, 100 pairs each)", ok,
          f"failures={failures[:5]}" if failures else "500 checks per genus")
    assert ok


def test_criterion_3_group_axioms():
    failures = []
    for g, tag in ((2, ja.SMALL), (1, ja.LARGE)):
        model = _model(g)
        rng = ja.RandomStream(f"acc-axioms-{g}-{tag}")
        pts = random_points(model, tag, 300, rng.split("pts"))
        zero = ja.zero_point(model, tag)
        for i in range(100):
            x, y, z = pts[3 * i], pts[3 * i + 1], pts[3 * i + 2]
            r = rng.split(f"ops{i}")
            if not ja.equal_class(model, ja.add(model, x, zero, r), x):
                failures.append((g, tag, i, "identity"))
            if not ja.equal_class(model,
                                  ja.add(model, x, ja.negate(model, x, r), r), zero):
                failures.append((g, tag, i, "inverse"))
            if not ja.equal_class(model, ja.addflip(model, x, y, r),
                                  ja.addflip(model, y, x, r)):
                failures.append((g, tag, i, "commutativity"))
            lhs = ja.add(model, ja.add(model, x, y, r), z, r)
            rhs = ja.add(model, x, ja.add(model, y, z, r), r)
            if not ja.equal_class(model, lhs, rhs):
                failures.append((g, tag, i, "associativity"))
    ok = not failures
    _line(3, "group axioms (100 pairs + 100 triples per curve)", ok,
          f"failures={failures[:5]}" if failures else "2 curves, exact")
    assert ok


def test_criterion_4_roundtrip_and_dimension_laws():
    failures = []
    for g in (1, 2, 3):
        bundle, model = _bundle(g), _model(g)
        rep = bundle.rep_a
        rng = ja.RandomStream(f"acc-round-{g}")
        for i in range(100):
            m = ja.random_mumford(bundle.curve, rng.split(f"m{i}"))
            d = ja.mumford_to_point(model, m).space
            if ja.degree(rep, d) != model.d:
                failures.append((g, i, "bridge-degree"))
            brief = ja.deflate(rep, d, rng.split(f"d{i}"))
            back = ja.inflate(rep, brief, model.defl_v)
            if back != d:
                failures.append((g, i, "roundtrip"))
            flipped = ja.flip(rep, d, rng.split(f"f{i}"))
            if ja.degree(rep, d) + ja.degree(rep, flipped) != rep.Delta:
                failures.append((g, i, "flip-degree"))
            if not linalg.contains_vector(flipped, rep.head(d)):
                failures.append((g, i, "flip-head"))
    ok = not failures
    _line(4, "inflate(deflate) bit-exact + dimension laws (100/curve)", ok,
          f"failures={failures[:5]}" if failures else "3 curves")
    assert ok


def test_criterion_5_las_vegas_bound():
    results = []
    for g, p in ((2, 1009), (3, 2), (5, 1009)):
        bundle = _bundle(g, p)
        model = _model(g, p)
        rep = bundle.rep_a
        rng = ja.RandomStream(f"acc-lv-{g}-{p}")
        pool = [pt.space for pt in
                random_points(model, ja.SMALL, 25, rng.split("pool"))]
        h = ja.igs_size_h(rep.Delta, model.d, rep.field.sigma_size)
        wins = 0
        trials = 1000
        for i in range(trials):
            d = pool[i % len(pool)]
            cand = ja.random_igs_candidate(rep, d, rng.split(f"c{i}"))
            wins += ja.is_igs(rep, cand, ja.degree(rep, d))
        frac = wins / trials
        stats = divisors.RetryStats()
        for i in range(64):
            ja.deflate(rep, pool[i % len(pool)], rng.split(f"d{i}"), stats)
        results.append((g, p, h, frac, stats.mean_attempts))
    ok = all(frac >= 0.45 and mean <= 2.5 for _, _, _, frac, mean in results)
    detail = "; ".join(f"(g={g},p={p}) h={h} success={frac:.3f} attempts={mean:.2f}"
                       for g, p, h, frac, mean in results)
    _line(5, "random-candidate success >= 0.45, deflation attempts <= 2.5", ok, detail)
    assert ok


def test_criterion_6_membership():
    bundle, model = _bundle(2), _model(2)
    rep = bundle.rep_a
    rng = ja.RandomStream("acc-membership")
    genuine_bad = perturbed_bad = 0
    pts = [ja.mumford_to_point(model, ja.random_mumford(bundle.curve,
                                                        rng.split(f"m{i}")))
           for i in range(100)]
    for i, pt in enumerate(pts):
        if not ja.membership_test(rep, pt.space, model.defl_v, rng.split(f"g{i}")):
            genuine_bad += 1
    full = rep.full_v()
    for i, pt in enumerate(pts):
        r = rng.split(f"p{i}")
        while True:
            basis = pt.space.basis.copy()
            basis[:, -1] = divisors.sigma_random_element(rep.field, full, r)
            cand = ja.column_echelon(rep.field, basis)
            if cand.dim == pt.space.dim and cand != pt.space:
                break
        if ja.membership_test(rep, cand, model.defl_v, r.split("t")):
            perturbed_bad += 1
    ok = genuine_bad == 0 and perturbed_bad == 0
    _line(6, "membership test (100 genuine true, 100 perturbed false)", ok,
          f"false_neg={genuine_bad} false_pos={perturbed_bad}")
    assert ok


def test_criterion_7_dual_representation_consistency():
    bundle = _bundle(2)
    rng = ja.RandomStream("acc-dual")
    ja.gen_rep_b0(bundle, rng.split("points"))
    model_a = bundle.large_model(rng.split("ma"), tag="a")
    model_b = bundle.large_model(rng.split("mb"), tag="b0")
    curve = bundle.curve
    bad = 0
    for i in range(100):
        r = ja.RandomStream(f"acc-dual-trial-{i}")
        m1 = ja.random_mumford(curve, r.split("m1"))
        m2 = ja.random_mumford(curve, r.split("m2"))
        tag = ja.SMALL if i % 2 == 0 else ja.LARGE
        xa = ja.mumford_to_point(model_a, m1, tag)
        ya = ja.mumford_to_point(model_a, m2, tag)
        xb = ja.mumford_to_point(model_b, m1, tag)
        yb = ja.mumford_to_point(model_b, m2, tag)
        za = ja.addflip(model_a, xa, ya, r.split("op"))
        zb = ja.addflip(model_b, xb, yb, r.split("op"))
        mapped = jacobian.JacobianPoint(tag, bundle.rep_b0.from_table_space(za.space))
        if not ja.equal_class(model_b, mapped, zb):
            bad += 1
    ok = bad == 0
    _line(7, "RepA vs RepB0 seeded addflip suites agree (100 trials)", ok,
          f"mismatches={bad}")
    assert ok


def test_criterion_8_complexity_scaling():
    genera = (5, 10, 20, 40)
    medians = {}
    for g in genera:
        rng = ja.RandomStream(f"acc-scale-{g}")
        bundle = ja.gen_hyperelliptic(g, 1009, rng=rng.split("curve"))
        model = bundle.large_model(rng.split("model"), compute_defl_v=False)
        pts = random_points(model, ja.LARGE, 10, rng.split("points"))
        times = []
        for i in range(5):
            x, y = pts[2 * i % len(pts)], pts[(2 * i + 1) % len(pts)]
            t0 = time.perf_counter()
            ja.addflip_large(model, x, y, rng.split(f"t{i}"))
            times.append(time.perf_counter() - t0)
        medians[g] = statistics.median(times)
    xs = [math.log(g) for g in genera]
    ys = [math.log(medians[g]) for g in genera]
    n = len(xs)
    sx, sy = sum(xs), sum(ys)
    sxx = sum(x * x for x in xs)
    sxy = sum(x * y for x, y in zip(xs, ys))
    slope = (n * sxy - sx * sy) / (n * sxx - sx * sx)
    ok = 2.5 <= slope <= 3.6
    detail = "slope=%.3f; medians_ms=%s" % (
        slope, {g: round(medians[g] * 1000, 1) for g in genera})
    _line(8, "addflip-large time fits g^a with a in [2.5, 3.6]", ok, detail)
    assert ok
