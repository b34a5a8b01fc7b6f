"""The benchmark's own arithmetic: tail rule, self time and layer ratios.

These tests build span lists by hand and time nothing.
"""

import pytest

import spans
import timing


def span(name, start, end, parent=-1, op=0, fit=None, cpu=(0.0, 0.0)):
    return [name, start, end, cpu[0], cpu[1], parent, op, fit]


def test_percentile_tail_rule():
    assert timing.samples_beyond(100, 90) == 10
    assert timing.samples_beyond(99, 90) == 9
    assert timing.min_samples(90) == 100
    assert timing.min_samples(50) == 20
    assert timing.min_samples(99) == 1000


def test_percentile_interpolates_between_ranks():
    assert timing.percentile([5, 1, 3, 2, 4], 50) == 3
    assert timing.percentile([1, 2, 3, 4], 50) == 2.5
    assert timing.percentile(range(1, 12), 90) == pytest.approx(10.0)
    assert timing.percentile([7.0], 90) == 7.0
    with pytest.raises(ValueError):
        timing.percentile([], 50)


def test_self_time_subtracts_covered_child_time_once():
    trace = [
        span("a", 0.0, 10.0),
        span("b", 1.0, 3.0, parent=0),
        span("c", 2.0, 4.0, parent=0),  # overlaps b: [1, 4] is covered once
        span("d", 8.0, 12.0, parent=0),  # runs past its parent: only [8, 10] counts
        span("e", 1.5, 2.5, parent=1),  # grandchild: counts against b, not a
    ]
    assert spans.self_times(trace) == pytest.approx([5.0, 1.0, 2.0, 4.0, 1.0])


def test_layer_metrics_ratios_and_per_op_averages():
    fit = "lpfit.fit_at"
    trace = [
        span("dataset.load_csv", 0.0, 0.5, op=-1),
        span(fit, 0.5, 0.6, op=-1, fit=(100, 50, (1, (0.0,)))),
        # op 0: one direct fit and two residual fits at the same site
        span(fit, 1.0, 2.0, op=0, fit=(100, 20, (1, (0.0,))), cpu=(0.0, 2.0)),
        span("inference.variance_hat", 2.0, 6.0, op=0),
        span(fit, 2.0, 3.0, parent=3, op=0, fit=(100, 30, (1, (0.1,)))),
        span(fit, 3.0, 4.0, parent=3, op=0, fit=(100, 30, (1, (0.1,)))),
        # op 1: a residual fit two levels below variance_hat, and a failed fit
        span("inference.variance_hat", 6.0, 9.0, op=1),
        span("inference.density_hat", 6.0, 8.0, parent=6, op=1),
        span(fit, 6.5, 7.5, parent=7, op=1, fit=(100, 40, (1, (0.1,)))),
        span(fit, 8.0, 8.5, op=1, fit=(100, None, (1, (0.2,)))),
    ]
    m = spans.layer_metrics(trace, ops=2)
    assert m["dataset.load_csv.setup_s"] == pytest.approx(0.5)
    assert m["dataset.load_csv.s"] == 0.0
    assert m["lpfit.fit_at.calls"] == 2.5
    assert m["lpfit.fit_at.sites_scanned"] == 250.0
    assert m["lpfit.fit_at.self_s"] == pytest.approx(4.5 / 2)
    assert m["lpfit.fit_at.cpu_s"] == pytest.approx(1.0)
    # the failed fit scanned its sites but found no window to count
    assert m["lpfit.fit_at.active_share"] == pytest.approx(120 / 400)
    assert m["inference.residual_fit.calls"] == 1.5
    assert m["inference.residual_fit.s"] == pytest.approx(1.5)
    # 3 residual fits over 2 distinct (operation, dataset, site) points
    assert m["inference.residual_fits_per_window_site"] == pytest.approx(1.5)
    assert m["inference.variance_hat.self_s"] == pytest.approx((2.0 + 1.0) / 2)
    assert m["randfield.simulate_field.s"] == 0.0


def test_ratios_with_no_base_read_zero():
    m = spans.layer_metrics([span("cli.main", 0.0, 1.0)], ops=1)
    assert m["lpfit.fit_at.active_share"] == 0.0
    assert m["inference.residual_fits_per_window_site"] == 0.0
    assert m["cli.main.self_s"] == pytest.approx(1.0)
