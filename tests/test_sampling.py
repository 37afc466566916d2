"""Halton sampling: the vectorised sequence against the scalar digit loop, and
the chunked candidate draw against the whole-budget draw."""

from dataclasses import replace

import numpy as np
import pytest

from einlocus import PotentialChart, make_builtin, sampling, verdict
from einlocus.bundles import DEFAULT_SUITE
from einlocus.coords import ChartPoint
from einlocus.errors import ChartDomainError, DegenerateMetricError
from einlocus.sampling import (
    MAX_CANDIDATE_FACTOR,
    SampleStats,
    SamplingConfig,
    _first_primes,
    box_points,
    halton_points,
    sample_chart_points,
)


def _radical_inverse(i, base):
    f, r = 1.0, 0.0
    while i > 0:
        f /= base
        r += f * (i % base)
        i //= base
    return r


def _scalar_halton(dim, count, seed, skip=0):
    start = 17 + 1009 * int(seed) + skip
    bases = _first_primes(dim)
    return np.array(
        [[_radical_inverse(start + row, b) for b in bases] for row in range(count)]
    ).reshape(count, dim)


@pytest.mark.parametrize("seed", [0, 1, 7, 500, 2**31 - 1])
def test_halton_matches_scalar_loop_bit_for_bit(seed):
    # all columns run one digit loop, so columns out of digits add +0.0
    for dim in range(1, 25):
        for count, skip in ((1, 0), (37, 0), (200, 0), (4, 7), (100, 2000)):
            fast = halton_points(dim, count, seed, skip)
            assert fast.shape == (count, dim)
            assert fast.tobytes() == _scalar_halton(dim, count, seed, skip).tobytes(), (dim, skip)


def test_stage_one_draws_one_chunk_at_an_admit_ratio_of_one(monkeypatch):
    # the draw stops before drawing once the sample is complete: a cpn-2
    # verdict at 12 samples draws its 12 candidates once
    chart = make_builtin("cpn", 2).chart
    draws = []

    def counting(box, count, seed=0, skip=0):
        draws.append((tuple(map(tuple, box)), skip))
        return box_points(box, count, seed, skip)

    monkeypatch.setattr(sampling, "box_points", counting)
    report = verdict(make_builtin("cpn", 2), SamplingConfig(12, 12))
    assert report.data["counts"]["ambient_admitted"] == 12
    assert [skip for box, skip in draws if box == tuple(map(tuple, chart.box))] == [0]


# the fewest samples a run can use: two ambient points for the Einstein fit,
# one locus point, and the first seed
LEAST = {"ambient_samples": 2, "locus_samples": 1, "seed": 0}


@pytest.mark.parametrize("field", ["ambient_samples", "locus_samples", "seed"])
def test_sampling_config_rejects_negative_counts_and_seeds(field):
    with pytest.raises(ValueError, match=field):
        SamplingConfig(**{field: -1})
    assert getattr(SamplingConfig(**{field: LEAST[field]}), field) == LEAST[field]


@pytest.mark.parametrize("field, value", [("ambient_samples", 0), ("ambient_samples", 1), ("locus_samples", 0)])
def test_sampling_config_rejects_too_few_samples(field, value):
    with pytest.raises(ValueError, match=f"{field} must be at least {LEAST[field]}"):
        SamplingConfig(**{field: value})


def test_sampling_config_rejects_a_seed_past_the_int64_halton_index():
    # at 3 + 3 samples the locus stream, which starts one seed on, draws the
    # last index: 17 + 1009 (seed + 1) + 2 must fit in int64
    top = (np.iinfo(np.int64).max - 19) // 1009 - 1
    SamplingConfig(3, 3, seed=top)
    halton_points(2, MAX_CANDIDATE_FACTOR * 3, top)
    halton_points(2, 3, top + 1)
    with pytest.raises(OverflowError):
        halton_points(2, 3, top + 2)
    with pytest.raises(ValueError, match=f"seed {top + 1} is too large"):
        SamplingConfig(3, 3, seed=top + 1)


def whole_budget_sample(chart, count, seed=0):
    """``sample_chart_points`` as it once was: the whole candidate budget
    drawn before the first admission.  The reference the chunked draw
    reproduces bit for bit."""
    stats = SampleStats(requested=count)
    accepted = []
    for row in box_points(chart.box, MAX_CANDIDATE_FACTOR * count, seed=seed):
        if len(accepted) >= count:
            break
        try:
            geom = chart.geometry(ChartPoint.from_real(row))
        except ChartDomainError:
            stats.rejected_domain += 1
            continue
        try:
            geom.g
        except DegenerateMetricError:
            stats.rejected_degenerate += 1
            continue
        accepted.append(geom)
        stats.admitted += 1
    return accepted, stats


def sampling_charts():
    """Charts whose draws admit all, some, or none of their candidates."""
    flat = PotentialChart(1, ("abs2", "w1"), ((-1.0, 1.0),) * 2, label="flat")
    yield from (make_builtin(name, n).chart for name, n in DEFAULT_SUITE)
    # a domain that rejects about three candidates in four
    yield replace(flat, domain=("-", 0.25, ("abs2", "w1")), label="disc")
    # a potential degenerate where Re w1 < 0, and a domain nothing meets
    yield replace(flat, potential=("*", ("+", ("re", "w1"), ("abs2", ("re", "w1"))), ("abs2", "w1")), label="half")
    yield replace(flat, domain=("-", -1.0, ("abs2", "w1")), label="empty")


@pytest.mark.parametrize("count, seed", [(2, 0), (7, 1), (20, 3)])
def test_chunked_draw_matches_the_whole_budget_draw_bit_for_bit(count, seed):
    for chart in sampling_charts():
        got, got_stats = sample_chart_points(chart, count, seed)
        want, want_stats = whole_budget_sample(chart, count, seed)
        assert got_stats == want_stats, chart.label
        assert [g.point.real_view.tobytes() for g in got] == [
            w.point.real_view.tobytes() for w in want
        ], chart.label


def test_a_draw_that_admits_nothing_tries_the_whole_budget():
    chart = PotentialChart(1, ("abs2", "w1"), ((-1.0, 1.0),) * 2, domain=("-", -1.0, ("abs2", "w1")))
    got, stats = sample_chart_points(chart, 3)
    assert got == []
    assert stats == SampleStats(requested=3, rejected_domain=MAX_CANDIDATE_FACTOR * 3)


def test_halton_skip_continues_the_stream():
    whole = halton_points(3, 50, seed=2)
    parts = [halton_points(3, 20, seed=2), halton_points(3, 30, seed=2, skip=20)]
    assert np.concatenate(parts).tobytes() == whole.tobytes()
