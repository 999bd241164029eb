from __future__ import annotations

import pytest

from weldlab.rng import derive_seed


@pytest.mark.parametrize("master, tags, seed", [
    (0, ("structure",), 2487096095720889279),
    (12345, ("estimator", 3, 2, 11), 6056987454792724062),
    (2 ** 64 - 1, ("sample_consistent",), 14849639684562828038),
    (7, ("tape-tier", "ü", -1), 7002604691429185020),
    (901, (), 7388119478187627856),
])
def test_derive_seed_pinned(master, tags, seed):
    # twice: the second call folds each string tag from the cache
    assert derive_seed(master, *tags) == seed
    assert derive_seed(master, *tags) == seed
