"""Deterministic low-discrepancy sampling of chart and parameter boxes.

Halton points are used everywhere: coverage without clustering, and the
whole stream is a pure function of (dimension, seed), so reports are
reproducible byte for byte.  The seed selects an offset into the sequence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coords import ChartPoint
from .errors import ChartDomainError, DegenerateMetricError

DEFAULT_MARGIN = 0.05

# Candidates tried per requested chart point before sampling gives up.
MAX_CANDIDATE_FACTOR = 40


def _first_primes(k):
    primes = []
    cand = 2
    while len(primes) < k:
        if all(cand % p for p in primes):
            primes.append(cand)
        cand += 1
    return primes


def _halton_start(seed):
    """The Halton index of a seed's first point."""
    return 17 + 1009 * int(seed)


def halton_points(dim, count, seed=0, skip=0):
    """``count`` points of the Halton sequence in [0, 1)^dim, after the
    seed's first ``skip`` points.

    One digit loop of the radical inverse runs over all rows and columns,
    each in its base, with the scalar loop's float operations per element (a
    column out of digits adds +0.0): a point does not depend on its draw.
    """
    start = _halton_start(seed) + skip
    bases = np.array(_first_primes(dim), dtype=np.int64)
    i = np.arange(start, start + count, dtype=np.int64)[:, None] + np.zeros(dim, dtype=np.int64)
    f, r = np.ones(dim), np.zeros((count, dim))
    while np.any(i > 0):
        f /= bases
        r += f * (i % bases)
        i //= bases
    return r


def box_points(box, count, seed=0, skip=0):
    """Halton points inside a box, shrunk by ``DEFAULT_MARGIN`` of each side
    (see ``halton_points`` for ``skip``)."""
    box = np.asarray(box, dtype=float)
    lo = box[:, 0] + DEFAULT_MARGIN * (box[:, 1] - box[:, 0])
    hi = box[:, 1] - DEFAULT_MARGIN * (box[:, 1] - box[:, 0])
    unit = halton_points(box.shape[0], count, seed, skip)
    return lo + unit * (hi - lo)


@dataclass(frozen=True)
class SamplingConfig:
    """Sampling and tolerance knobs for a verification run."""

    ambient_samples: int = 50
    locus_samples: int = 50
    seed: int = 0
    tolerance_overrides: tuple = ()

    def __post_init__(self):
        # the ambient Einstein fit needs two points and the locus checks one,
        # so fewer is a usage error, not a degenerate manifold
        for name, least in (("ambient_samples", 2), ("locus_samples", 1)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be at least {least}, got {getattr(self, name)}")
        # a negative seed would start the Halton stream below zero, where
        # every point is the box's lower corner
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        # every Halton index drawn must fit in int64: the ambient stream tries
        # up to MAX_CANDIDATE_FACTOR candidates per point, and the locus
        # stream starts at the next seed
        last = max(
            _halton_start(self.seed) + MAX_CANDIDATE_FACTOR * self.ambient_samples,
            _halton_start(self.seed + 1) + self.locus_samples,
        ) - 1
        if last > np.iinfo(np.int64).max:
            raise ValueError(f"seed {self.seed} is too large: Halton index {last} overflows int64")


@dataclass
class SampleStats:
    requested: int = 0
    admitted: int = 0
    rejected_domain: int = 0
    rejected_degenerate: int = 0


def sample_chart_points(chart, count, seed=0):
    """The chart geometries of admitted points, plus rejection statistics.

    Points outside the domain predicate or with a degenerate metric are
    skipped and counted; the stream is extended until ``count`` admitted
    points are found or ``MAX_CANDIDATE_FACTOR * count`` candidates were
    tried.  Candidates are drawn ``count`` at a time, as they are needed:
    at an admit ratio of 1 that is one draw.  A draw is lifted in stacked
    runs (``PotentialChart.lifts``); candidates past the stop never raise.
    """
    stats = SampleStats(requested=count)
    accepted = []
    for skip in range(0, MAX_CANDIDATE_FACTOR * count, count):
        rows = box_points(chart.box, count, seed=seed, skip=skip)
        points = [ChartPoint.from_real(row) for row in rows]
        for point, lift in zip(points, chart.lifts(points)):
            try:
                geom = chart.geometry(point, lift=lift)
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
            if stats.admitted == count:
                return accepted, stats
    return accepted, stats


def sample_parameters(locus, count, seed=0):
    """Halton parameters in the locus box (no admission checks here)."""
    rows = box_points(locus.box, count, seed=seed + 1)
    return [tuple(float(x) for x in r) for r in rows]
