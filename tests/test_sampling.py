"""Halton sampling: the vectorised sequence against the scalar digit loop."""

import numpy as np
import pytest

from einlocus.sampling import SamplingConfig, _first_primes, halton_points


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


@pytest.mark.parametrize("field", ["ambient_samples", "locus_samples", "seed"])
def test_sampling_config_rejects_negative_counts_and_seeds(field):
    with pytest.raises(ValueError, match=field):
        SamplingConfig(**{field: -1})
    assert getattr(SamplingConfig(**{field: 0}), field) == 0
