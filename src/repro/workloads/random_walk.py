"""Random-walk value sequences.

The paper's synthetic data: "upon each update, the object's value was either
incremented or decremented by 1, with equal probability (following a random
walk pattern)" (Sec 4.3).
"""

from __future__ import annotations

import numpy as np


def random_walk_values_batch(counts: np.ndarray, rng: np.random.Generator,
                             initials: np.ndarray,
                             step: float = 1.0) -> np.ndarray:
    """Independent +-``step`` walks for many objects, drawn in bulk.

    ``counts[i]`` is the number of moves of object ``i``'s walk, which
    starts at ``initials[i]``.  Returns one flat object-major array: the
    first ``counts[0]`` entries are object 0's values after each of its
    moves, then object 1's, and so on -- the value layout matching the
    object-major event streams of the batched samplers.

    One sign draw plus a segmented cumulative sum replaces a per-object
    walk loop: a global ``cumsum`` over all steps is rebased at each
    object's segment start, which is algebraically exact because the
    rebasing subtracts the prefix sum accumulated by earlier segments.
    The sum runs in place over the draw and each event-length temporary
    is dropped after its last use, so no more than two event-length
    arrays are alive at once (DESIGN.md Sec 10).
    """
    counts = np.asarray(counts, dtype=np.int64)
    if (counts < 0).any():
        raise ValueError("counts must be >= 0")
    initials = np.asarray(initials, dtype=float)
    if len(initials) != len(counts):
        raise ValueError(
            f"expected {len(counts)} initial values, got {len(initials)}")
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=float)
    cumulative = rng.choice((-step, step), size=total)
    np.cumsum(cumulative, out=cumulative)
    # Prefix sum *before* each object's first step: the cumsum entry just
    # ahead of its segment, 0 for segments at the front (index -1).
    # Zero-count objects (whose start equals the next object's) are
    # harmless: the repeats below drop them.
    ahead = np.cumsum(counts)
    ahead -= counts
    ahead -= 1
    prefix = cumulative[ahead]
    prefix[ahead < 0] = 0.0
    del ahead
    values = np.repeat(initials, counts)
    values += cumulative
    del cumulative
    values -= np.repeat(prefix, counts)
    return values


def expected_walk_deviation(rate: float, elapsed: float,
                            step: float = 1.0) -> float:
    """Expected |value - start| of a +-step walk after ``rate * elapsed`` moves.

    For ``k`` fair +-1 steps, ``E|S_k| ~ sqrt(2 k / pi)`` for large ``k``.
    Used by the analysis module to build closed-form ideal schedules for
    random-walk workloads.
    """
    k = max(rate * elapsed, 0.0)
    return step * float(np.sqrt(2.0 * k / np.pi))
