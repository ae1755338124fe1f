"""Per-item RNG seeds shared by the estimation pipelines."""

from __future__ import annotations

import numpy as np


def derive_rng_seed(seed: int, *ids: int) -> int:
    """Stable per-item RNG seed so parallel and serial runs agree."""
    return int(np.random.SeedSequence([int(seed), *map(int, ids)]).generate_state(1)[0])
