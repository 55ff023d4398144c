"""Tests for the benchmark's own arithmetic and for the tracer's clean-up."""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

import spans
import summary

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))


def test_tail_needs_eleven_samples():
    assert summary.tail([]) is None
    assert summary.tail(list(range(10))) is None
    # 11 samples: the smallest has exactly ten above it
    assert summary.tail([5.0] + [9.0] * 10) == (5.0, 100 / 11)


def test_tail_is_highest_percentile_with_ten_beyond():
    values = list(range(100, 0, -1))  # unsorted on purpose
    value, pct = summary.tail(values)
    assert value == 90 and pct == 90.0
    assert sum(v > value for v in values) == 10
    value, pct = summary.tail(list(range(1, 1001)))
    assert value == 990 and pct == 99.0


def _span(name, start, end, parent):
    return [name, start, end, parent, 0, None]


def test_self_time_subtracts_nested_children():
    trace = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("a.inner", 2.0, 3.0, 1),
        _span("b", 5.0, 6.0, 0),
    ]
    assert spans.self_times(trace) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    trace = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 5.0, 0),
        _span("b", 3.0, 7.0, 0),
        _span("c", 9.0, 12.0, 0),  # runs past its parent; only 9..10 counts
    ]
    assert spans.self_times(trace)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_aggregate_keeps_only_chosen_roots():
    trace = [
        _span("op.add", 0.0, 4.0, -1),
        _span("linalg.rref", 1.0, 2.0, 0),
        ["check", 5.0, 9.0, -1, 2, None],
        ["linalg.rref", 6.0, 8.0, 2, 2, {"elim_ops": 7}],
    ]
    agg = spans.aggregate(trace, spans.self_times(trace),
                          lambda root: root[spans.NAME].startswith("op."))
    assert set(agg) == {"op.add", "linalg.rref"}
    assert agg["linalg.rref"]["calls"] == 1
    assert agg["linalg.rref"]["self_s"] == pytest.approx(1.0)
    assert agg["op.add"]["self_s"] == pytest.approx(3.0)


def test_slope_matches_acceptance_criterion_8():
    genera = (5, 10, 20, 40)
    medians = {5: 0.0085, 10: 0.0318, 20: 0.264, 40: 1.671}
    # the inline fit of tests/test_acceptance.py, criterion 8
    xs = [math.log(g) for g in genera]
    ys = [math.log(medians[g]) for g in genera]
    n = len(xs)
    sx, sy = sum(xs), sum(ys)
    sxx = sum(x * x for x in xs)
    sxy = sum(x * y for x, y in zip(xs, ys))
    expected = (n * sxy - sx * sy) / (n * sxx - sx * sx)
    got = summary.loglog_slope(genera, [medians[g] for g in genera])
    assert got == expected
    assert summary.loglog_slope(genera, [g ** 3 for g in genera]) == pytest.approx(3.0)


def test_spread_is_quartile_distance_over_median():
    assert summary.spread([1.0] * 10) == 0.0
    assert summary.spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]) == pytest.approx(
        (8.25 - 2.75) / 5.5)


def test_uninstall_restores_engine_functions():
    from jacarith import curverep, hyperelliptic, jacobian, linalg
    from jacarith.field import make_prime_field

    modules = spans.layer_modules()
    before = {m.__name__: dict(vars(m)) for m in modules}
    tracer = spans.Tracer()
    tracer.install(modules)
    try:
        assert linalg.rref is not before["jacarith.linalg"]["rref"]
        assert curverep._apply_mul is not before["jacarith.curverep"]["_apply_mul"]
        # an imported name is wrapped where it is used, under its home module
        assert hyperelliptic.make_large_model is not jacobian.make_large_model
        field = make_prime_field(1009)
        a = np.array([[1, 2, 3], [2, 4, 6]], dtype=np.int64)
        assert linalg.kernel_basis(field, a).dim == 2
        names = [sp[spans.NAME] for sp in tracer.spans]
        assert names[0] == "linalg.kernel_basis"
        assert "linalg.rref" in names  # reached through module-internal calls
        rref = next(sp for sp in tracer.spans if sp[spans.NAME] == "linalg.rref")
        assert rref[spans.EXTRA] == {"elim_ops": 1 * 2 * 3}
    finally:
        tracer.uninstall()
    assert {m.__name__: dict(vars(m)) for m in modules} == before
    recorded = len(tracer.spans)
    linalg.kernel_basis(field, a)
    assert len(tracer.spans) == recorded
