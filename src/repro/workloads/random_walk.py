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
    steps = rng.choice((-step, step), size=total)
    cumulative = np.cumsum(steps)
    # Prefix sum *before* each object's first step: starts[i] indexes into
    # the zero-prepended cumsum, so zero-count objects (whose start equals
    # the next object's) are harmless and dropped by the repeats below.
    starts = np.concatenate(([0], np.cumsum(counts[:-1])))
    prefix = np.concatenate(([0.0], cumulative))[starts]
    return (np.repeat(initials, counts)
            + cumulative - np.repeat(prefix, counts))


def expected_walk_deviation(rate: float, elapsed: float,
                            step: float = 1.0) -> float:
    """Expected |value - start| of a +-step walk after ``rate * elapsed`` moves.

    For ``k`` fair +-1 steps, ``E|S_k| ~ sqrt(2 k / pi)`` for large ``k``.
    Used by the analysis module to build closed-form ideal schedules for
    random-walk workloads.
    """
    k = max(rate * elapsed, 0.0)
    return step * float(np.sqrt(2.0 * k / np.pi))
