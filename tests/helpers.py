import json
from pathlib import Path

import numpy as np

from partitest import GroupedSample, RankedSample, rank_with_random_ties


def random_grouped_labels(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    """Random label vector in 1..k with every group non-empty."""
    while True:
        labels = rng.integers(1, k + 1, size=n)
        if np.unique(labels).size == k:
            return labels


def random_rank_pair(rng: np.random.Generator, n: int):
    """An (x, y) pair of rank permutations, x kept as the identity."""
    return np.arange(1, n + 1), rng.permutation(n) + 1


def golden_sweep() -> dict:
    """Recorded float.hex values of the sum and max statistics, MI, HHG and `run_test`."""
    return json.loads((Path(__file__).parent / "golden_sweep.json").read_text())


def golden_grouped(n: int, k: int) -> GroupedSample:
    """A seeded near-balanced K-sample arrangement, responses ranked 1..N."""
    sizes = [n // k + (g < n % k) for g in range(k)]
    base = np.repeat(np.arange(1, k + 1), sizes)
    labels = np.random.default_rng(2000 + 10 * n + k).permutation(base)
    return GroupedSample(labels, RankedSample(np.arange(1, n + 1), n, 0), tuple(sizes))


def golden_shuffled_pair(n: int):
    """A seeded (x, y) pair of raw rank arrays, both axes shuffled."""
    rng = np.random.default_rng(4000 + n)
    return rng.permutation(n) + 1, rng.permutation(n) + 1


def golden_hhg_pair(n: int, kind: str):
    """A seeded dependent (x, y) pair: ``untied`` or ``tied`` raw values, or ``ranks``."""
    rng = np.random.default_rng(3000 + n)
    if kind == "tied":
        x = rng.integers(0, 6, size=n).astype(float)
        return x, np.round(x + rng.normal(0.0, 2.0, size=n))
    x = rng.standard_normal(n)
    y = x + rng.standard_normal(n)
    if kind == "ranks":
        return rank_with_random_ties(x, 1), rank_with_random_ties(y, 2)
    return x, 1e8 + y
