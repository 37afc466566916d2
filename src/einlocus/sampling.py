"""Deterministic low-discrepancy sampling of chart and parameter boxes.

Halton points are used everywhere: coverage without clustering, and the
whole stream is a pure function of (dimension, seed), so reports are
reproducible byte for byte.  The seed selects an offset into the sequence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coords import ChartPoint
from .errors import DegenerateMetricError

DEFAULT_MARGIN = 0.05


def _first_primes(k):
    primes = []
    cand = 2
    while len(primes) < k:
        if all(cand % p for p in primes):
            primes.append(cand)
        cand += 1
    return primes


def halton_points(dim, count, seed=0):
    """``count`` points of the Halton sequence in [0, 1)^dim.

    Each column runs the digit loop of the radical inverse over all rows at
    once, with the same float operations per element as the scalar loop.
    """
    start = 17 + 1009 * int(seed)
    out = np.empty((count, dim))
    for d, base in enumerate(_first_primes(dim)):
        i = np.arange(start, start + count, dtype=np.int64)
        f, r = 1.0, np.zeros(count)
        while np.any(i > 0):
            f /= base
            r += f * (i % base)
            i //= base
        out[:, d] = r
    return out


def box_points(box, count, seed=0, margin=DEFAULT_MARGIN):
    """Halton points inside a box, shrunk by ``margin`` of each side."""
    box = np.asarray(box, dtype=float)
    lo = box[:, 0] + margin * (box[:, 1] - box[:, 0])
    hi = box[:, 1] - margin * (box[:, 1] - box[:, 0])
    unit = halton_points(box.shape[0], count, seed)
    return lo + unit * (hi - lo)


@dataclass(frozen=True)
class SamplingConfig:
    """Sampling and tolerance knobs for a verification run."""

    ambient_samples: int = 50
    locus_samples: int = 50
    seed: int = 0
    margin: float = DEFAULT_MARGIN
    tolerance_overrides: tuple = ()


@dataclass
class SampleStats:
    requested: int = 0
    admitted: int = 0
    rejected_domain: int = 0
    rejected_degenerate: int = 0


def sample_chart_points(chart, count, seed=0, margin=DEFAULT_MARGIN, max_factor=40):
    """Admitted chart points plus rejection statistics.

    Points outside the domain predicate or with a degenerate metric are
    skipped and counted; the stream is extended until ``count`` admitted
    points are found or ``max_factor * count`` candidates were tried.
    """
    stats = SampleStats(requested=count)
    accepted = []
    budget = max_factor * count
    raw = box_points(chart.box, budget, seed=seed, margin=margin)
    for row in raw:
        if len(accepted) >= count:
            break
        p = ChartPoint.from_real(row)
        if not chart.admits(p):
            stats.rejected_domain += 1
            continue
        try:
            chart.geometry(p).g
        except DegenerateMetricError:
            stats.rejected_degenerate += 1
            continue
        accepted.append(p)
        stats.admitted += 1
    return accepted, stats


def sample_parameters(locus, count, seed=0, margin=DEFAULT_MARGIN):
    """Halton parameters in the locus box (no admission checks here)."""
    rows = box_points(locus.box, count, seed=seed + 1, margin=margin)
    return [tuple(float(x) for x in r) for r in rows]
