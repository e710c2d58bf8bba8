"""Self-time arithmetic on a synthetic nested span tree, and live wrapping."""

import pytest

from perfbench import tracing


def _span(name, start, end, parent, stats=None):
    return [name, start, end, parent, 0, stats or {}]


def _tree():
    # request 0..10 s: cli.main 1..9 holds zeta_hasse 2..7, which holds two
    # quadratures 3..4 and 5..6.5; a second request 11..12 has no children.
    return [
        _span("request", 0.0, 10.0, None),
        _span("cli.main", 1.0, 9.0, 0),
        _span("hurwitz.zeta_hasse", 2.0, 7.0, 1),
        _span("mpmath.quad", 3.0, 4.0, 2, {"evals": 40}),
        _span("mpmath.quad", 5.0, 6.5, 2, {"evals": 60}),
        _span("request", 11.0, 12.0, None),
    ]


def test_self_times_subtract_children():
    assert tracing.self_times(_tree()) == pytest.approx(
        [2.0, 3.0, 2.5, 1.0, 1.5, 1.0])


def test_self_times_plus_remainder_equal_wall():
    ok, total, remainder = tracing.check_accounting(_tree(), 13.0)
    assert ok
    assert total == pytest.approx(11.0)
    assert remainder == pytest.approx(2.0)


def test_misnested_child_is_detected():
    spans = _tree()
    spans[4][tracing.END] = 7.5  # quadrature outlives its parent
    ok, _, _ = tracing.check_accounting(spans, 13.0)
    assert not ok


def test_hasse_split_and_layer_names():
    values = tracing.layer_metrics(_tree(), [
        "hasse.head_s", "hasse.tail_quad_s", "hasse.tail_quad_evals",
        "mpmath.quad.calls", "cli.startup_s", "cli.main.self_s",
        "kernels.sum_trig_averaged.calls"])
    assert values == pytest.approx({
        "hasse.head_s": 2.5, "hasse.tail_quad_s": 2.5,
        "hasse.tail_quad_evals": 100, "mpmath.quad.calls": 2,
        "cli.startup_s": 1.0, "cli.main.self_s": 3.0,
        "kernels.sum_trig_averaged.calls": 0})


def test_merge_hangs_child_spans_below_their_request():
    roots = [_span("request", 0.0, 5.0, None), _span("request", 6.0, 8.0, None)]
    child = [[_span("cli.main", 1.0, 4.0, None), _span("mpmath.quad", 2.0, 3.0, 0)],
             [_span("cli.main", 6.5, 7.5, None)]]
    merged = tracing.merge(roots, child)
    assert [s[tracing.PARENT] for s in merged] == [None, None, 0, 2, 1]


def test_install_rebinds_every_copy_and_counts_quadrature():
    from mpmath import mp
    import stieltjes.constants as constants
    import stieltjes.fourier as fourier

    saved = {}
    import sys
    for name, mod in list(sys.modules.items()):
        if name == "stieltjes" or name.startswith("stieltjes."):
            saved[name] = dict(vars(mod))
    from stieltjes import cache, suites
    saved_suites = dict(suites.SUITES)
    saved_get, saved_put = cache.ResultCache.get, cache.ResultCache.put
    try:
        rec = tracing.Recorder()
        tracing.install(rec)
        assert fourier.hasse_gamma is constants.hasse_gamma
        mp.quad(lambda t: t * t, [0, 1])
        agg, _ = tracing.aggregate(rec.spans)
        assert agg["mpmath.quad"]["calls"] == 1
        assert agg["mpmath.quad"]["evals"] > 0
    finally:
        del mp.quad
        for name, attrs in saved.items():
            sys.modules[name].__dict__.update(attrs)
        suites.SUITES.clear()
        suites.SUITES.update(saved_suites)
        cache.ResultCache.get, cache.ResultCache.put = saved_get, saved_put
