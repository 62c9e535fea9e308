import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from fgfusion import AffinityMatrix

from bruteforce import csr


@pytest.fixture
def two_block_affinity():
    """Two disconnected 5-node cliques, uniform rows within each block."""
    neighbor_ids = []
    probs = []
    for i in range(10):
        block = range(0, 5) if i < 5 else range(5, 10)
        ids = np.array([j for j in block if j != i], dtype=np.int64)
        neighbor_ids.append(ids)
        probs.append(np.full(ids.size, 0.25))
    aff = AffinityMatrix(*csr(zip(neighbor_ids, probs)), sigma_sq=np.full(10, 1.0))
    aff.validate()
    return aff


@pytest.fixture
def block_labels():
    return np.array([0] * 5 + [1] * 5)
