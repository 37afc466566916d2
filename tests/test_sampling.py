"""Halton sampling: the vectorised sequence against the scalar digit loop."""

import numpy as np
import pytest

from einlocus.sampling import MAX_CANDIDATE_FACTOR, SamplingConfig, _first_primes, halton_points


def _radical_inverse(i, base):
    f, r = 1.0, 0.0
    while i > 0:
        f /= base
        r += f * (i % base)
        i //= base
    return r


def _scalar_halton(dim, count, seed):
    start = 17 + 1009 * int(seed)
    bases = _first_primes(dim)
    return np.array(
        [[_radical_inverse(start + row, b) for b in bases] for row in range(count)]
    ).reshape(count, dim)


@pytest.mark.parametrize("seed", [0, 1, 7, 500, 2**31 - 1])
def test_halton_matches_scalar_loop_bit_for_bit(seed):
    for dim in range(1, 13):
        for count in (1, 37, 200):
            fast = halton_points(dim, count, seed)
            assert fast.shape == (count, dim)
            assert fast.tobytes() == _scalar_halton(dim, count, seed).tobytes()


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
