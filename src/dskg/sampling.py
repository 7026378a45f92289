"""Log-uniform negative sampling over frequency-ordered lexicons.

Ids are assumed sorted by descending frequency, so the log-uniform law
P(j) = log((j+2)/(j+1)) / log(N+1) concentrates draws on frequent labels.
Negative sets are always drawn from the same lexicon as the true label
(entities for entity targets, relations for relation targets) and never
contain the true label itself.
"""

from __future__ import annotations

import numpy as np


def log_uniform_probs(lexicon_size: int) -> np.ndarray:
    """Analytic pmf of the log-uniform law over ids 0..N-1."""
    ids = np.arange(lexicon_size, dtype=np.float64)
    return (np.log(ids + 2.0) - np.log(ids + 1.0)) / np.log(lexicon_size + 1.0)


def log_uniform_raw(lexicon_size: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """Plain log-uniform draws (duplicates allowed), via the inverse CDF."""
    u = rng.random(size)
    ids = np.floor(np.exp(u * np.log(lexicon_size + 1.0))).astype(np.int64) - 1
    return np.clip(ids, 0, lexicon_size - 1)


def log_uniform_sample(
    lexicon_size: int, count: int, exclude: int | None, rng: np.random.Generator
) -> np.ndarray:
    """``count`` distinct ids != exclude, in first-drawn order.

    Duplicates and the excluded id are rejected and redrawn, which makes the
    result law identical to successive renormalized draws; the two shortcut
    paths below reproduce that law directly when rejection would thrash.
    ``exclude=None`` draws distinct ids with no exclusion.
    """
    max_count = lexicon_size - (0 if exclude is None else 1)
    if count > max_count:
        raise ValueError(
            f"cannot draw {count} distinct ids from {lexicon_size}"
            + ("" if exclude is None else " excluding one")
        )
    if count == max_count:
        ids = np.arange(lexicon_size, dtype=np.int64)
        return ids if exclude is None else ids[ids != exclude]
    if count > lexicon_size // 2:
        probs = log_uniform_probs(lexicon_size)
        if exclude is not None:
            probs[exclude] = 0.0
        probs /= probs.sum()
        return rng.choice(lexicon_size, size=count, replace=False, p=probs).astype(np.int64)

    seen = np.zeros(lexicon_size, dtype=bool)
    if exclude is not None:
        seen[exclude] = True
    out = np.empty(0, dtype=np.int64)
    while len(out) < count:
        draws = log_uniform_raw(lexicon_size, max(2 * count, 16), rng)
        # Each id's first occurrence in draw order, less the ids already seen.
        fresh = draws[np.sort(np.unique(draws, return_index=True)[1])]
        fresh = fresh[~seen[fresh]][: count - len(out)]
        seen[fresh] = True
        out = np.concatenate([out, fresh])
    return out


def negatives_for_batch(
    labels: np.ndarray, lexicon_size: int, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Per-example negative matrix (batch, count), excluding each row's label."""
    labels = np.asarray(labels)
    out = np.empty((len(labels), count), dtype=np.int64)
    for i, label in enumerate(labels):
        out[i] = log_uniform_sample(lexicon_size, count, int(label), rng)
    return out
