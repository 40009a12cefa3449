import json
from pathlib import Path

import numpy as np


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
    """Recorded float.hex values of `adp_sum_all_m` and `mi_adp`, to be matched exactly."""
    return json.loads((Path(__file__).parent / "golden_sweep.json").read_text())
