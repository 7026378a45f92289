"""Whole-triple generation by two-stage wide beam search, plus its precision curve.

Stage 1 scores every (entity, relation) pair by the relation's probability
given the entity and keeps the best ``stage1_window`` pairs. Stage 2 extends
each surviving pair with every object entity, scoring a triple by
p(r | s) * p(o | s, r), and keeps the best ``stage2_window`` triples, sorted
by descending score. Ordering is a total order (score descending, then ids
ascending) so results do not depend on chunking or worker count.

Both stages keep their best candidates in one bounded pool of int64 keys
whose ascending order is ascending id order (``e * R + r`` for a pair,
``(s * R + r) * N + o`` for a triple), selected by a partition on score and
sorted only once, at the end. The precision curve tests its outputs against
the dataset's sorted fact keys by binary search.

Both stages score through ``evaluation.relation_scores_batch`` and
``entity_scores_batch``, so a model with non-finite logits raises the same
ValueError as ranking does instead of yielding an empty beam.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import IndexedDataset, Vocabulary, _encode_pairs, _encode_triples, check_key_range
from .evaluation import entity_scores_batch, map_chunks, relation_scores_batch
from .model import ModelParams


@dataclass
class BeamConfig:
    stage1_window: int = 100_000
    stage2_window: int = 1_000_000
    canonicalize: bool = True
    curve_points: int = 1000

    def __post_init__(self):
        if self.stage1_window < 1 or self.stage2_window < 1:
            raise ValueError("beam windows must be >= 1")
        if self.curve_points < 0:
            raise ValueError(f"curve_points must be >= 0, got {self.curve_points}")


@dataclass
class ScoredTriples:
    """Triples (n, 3) with scores (n,), sorted by the beam's total order."""

    triples: np.ndarray
    scores: np.ndarray

    def __len__(self) -> int:
        return len(self.scores)


class _TopK:
    """Bounded best-``limit`` pool of int64 keys under (score desc, key asc) order.

    Each candidate is one int64 key built by ``_encode_pairs``, so ascending
    key order is ascending id order: a stage-1 key is ``e * R + r`` and a
    stage-2 key is ``(s * R + r) * N + o``, the ``_encode_triples`` key. A
    score block is filtered against the cutoff before any key is built, and
    the pool is cut back to ``limit`` by a partition on score plus the
    smallest keys of the tie band at the cutoff; only ``finish`` sorts.

    Scores must be finite: NaN fails every ``>= cutoff`` test and would be
    dropped without a trace. The stages offer softmax blocks, which
    ``evaluation._softmax64`` has already checked.
    """

    def __init__(self, limit: int):
        self.limit = limit
        self.keys = np.empty(0, dtype=np.int64)
        self.scores = np.empty(0, dtype=np.float64)
        self.cutoff = -np.inf

    def offer(self, row_keys: np.ndarray, scores: np.ndarray):
        """Offer a (rows, width) block; entry (i, j) has key ``row_keys[i] * width + j``."""
        width = scores.shape[1]
        flat = scores.reshape(-1)
        index = np.flatnonzero(flat >= self.cutoff)  # ties at the cutoff may still win on keys
        if not len(index):
            return
        rows, cols = np.divmod(index, width)
        self.keys = np.concatenate([self.keys, _encode_pairs(row_keys[rows], cols, width)])
        self.scores = np.concatenate([self.scores, flat[index]])
        if len(self.scores) >= 3 * self.limit:
            self._compress()

    def _compress(self):
        if len(self.scores) < self.limit:
            return
        kth = len(self.scores) - self.limit
        self.cutoff = np.partition(self.scores, kth)[kth]  # the limit-th best score
        above = np.flatnonzero(self.scores > self.cutoff)
        band = np.flatnonzero(self.scores == self.cutoff)
        need = self.limit - len(above)  # >= 1, since the cutoff itself is in the band
        band = band[np.argpartition(self.keys[band], need - 1)[:need]]
        keep = np.concatenate([above, band])
        self.keys = self.keys[keep]
        self.scores = self.scores[keep]

    def finish(self):
        """Keys and scores of the pool, sorted by score descending then key ascending."""
        self._compress()
        order = np.lexsort((self.keys, -self.scores))
        return self.keys[order], self.scores[order]


def stage1_pairs(
    params: ModelParams, config: BeamConfig, *, entity_chunk: int = 512, workers: int = 1
) -> ScoredTriples:
    """Top (entity, relation) pairs by relation probability given the entity.

    Returns pair ids in a (n, 2) array with scores, ordered by score
    descending then (entity, relation) ascending.
    """
    num_relations = params.num_relations
    check_key_range(params.num_entities, num_relations)
    pool = _TopK(config.stage1_window)

    def score_span(span):
        entities = np.arange(*span, dtype=np.int64)
        return entities, relation_scores_batch(params, entities)

    for entities, probs in map_chunks(score_span, params.num_entities, entity_chunk, workers):
        pool.offer(entities, probs)
    keys, scores = pool.finish()
    return ScoredTriples(triples=np.column_stack(np.divmod(keys, num_relations)), scores=scores)


def stage2_triples(
    params: ModelParams,
    pairs: ScoredTriples,
    config: BeamConfig,
    *,
    pair_chunk: int | None = None,
    workers: int = 1,
) -> ScoredTriples:
    """Extend stage-1 pairs with every object; keep the top triples.

    Triple score = stage-1 pair score x p(object | entity, relation).
    """
    num_entities = params.num_entities
    num_relations = params.num_relations
    check_key_range(num_entities, num_relations)
    if pair_chunk is None:
        pair_chunk = max(1, 2_000_000 // max(num_entities, 1))
    pool = _TopK(config.stage2_window)
    pair_ids, pair_scores = pairs.triples, pairs.scores
    pair_keys = _encode_pairs(pair_ids[:, 0], pair_ids[:, 1], num_relations)

    def score_span(span):
        lo, hi = span
        probs = entity_scores_batch(params, pair_ids[lo:hi, 0], pair_ids[lo:hi, 1])
        probs *= pair_scores[lo:hi, None]
        return pair_keys[lo:hi], probs

    for keys, scores in map_chunks(score_span, len(pair_ids), pair_chunk, workers):
        pool.offer(keys, scores)
    keys, scores = pool.finish()
    subject_relation, objects = np.divmod(keys, num_entities)
    triples = np.column_stack([*np.divmod(subject_relation, num_relations), objects])
    return ScoredTriples(triples=triples, scores=scores)


def canonicalize_triples(triples: np.ndarray, vocab: Vocabulary) -> np.ndarray:
    """Flip reverse-relation triples (o, r-reverse, s) to their forward form."""
    triples = np.asarray(triples)
    out = triples.copy()
    flip = vocab.is_reverse[triples[:, 1]]
    out[flip, 0] = triples[flip, 2]
    out[flip, 1] = vocab.reverse_of[triples[flip, 1]]
    out[flip, 2] = triples[flip, 0]
    return out


@dataclass(frozen=True)
class CurvePoint:
    n: int
    n_corr: int
    n_pred: int
    n_error: int
    precision: float | None


def precision_curve(
    output: ScoredTriples,
    dataset: IndexedDataset,
    *,
    canonicalize: bool = True,
    max_points: int = 1000,
) -> list[CurvePoint]:
    """Precision over the top-n outputs, at up to ``max_points`` evenly spaced
    n plus the last one.

    n_corr counts outputs that are facts in any split, n_pred those in the
    valid/test splits, n_error the rest; precision = n_pred / (n_pred +
    n_error), undefined (None) when that denominator is zero. Reverse-form
    outputs are folded onto their forward form and deduplicated first (the
    first, highest-ranked occurrence survives) unless ``canonicalize`` is off.
    """
    scores = np.asarray(output.scores)
    if np.any(np.diff(scores) > 0):
        raise ValueError("output triples must be sorted by non-increasing score")
    vocab = dataset.vocab
    triples = (
        canonicalize_triples(output.triples, vocab) if canonicalize else np.asarray(output.triples)
    )
    keys = _encode_triples(triples, vocab.num_relations, vocab.num_entities)
    _, first = np.unique(keys, return_index=True)
    kept = np.sort(first)  # rank order among deduplicated outputs
    keys = keys[kept]

    correct = _in_sorted(keys, dataset.correct_keys)
    predictable = _in_sorted(keys, dataset.predict_keys)
    cum_corr = np.cumsum(correct)
    cum_pred = np.cumsum(predictable)

    total = len(keys)
    if total == 0:
        return []
    grid = np.unique(
        np.concatenate(
            [np.linspace(1, total, num=min(max_points, total)).astype(np.int64), [total]]
        )
    )

    curve = []
    for n in grid:
        n_corr = int(cum_corr[n - 1])
        n_pred = int(cum_pred[n - 1])
        n_error = int(n) - n_corr
        denom = n_pred + n_error
        curve.append(
            CurvePoint(
                n=int(n),
                n_corr=n_corr,
                n_pred=n_pred,
                n_error=n_error,
                precision=(n_pred / denom) if denom > 0 else None,
            )
        )
    return curve


def _in_sorted(values: np.ndarray, sorted_keys: np.ndarray) -> np.ndarray:
    """``np.isin(values, sorted_keys)`` by binary search; ``sorted_keys`` ascending."""
    pos = np.searchsorted(sorted_keys, values)
    found = pos < len(sorted_keys)
    found[found] = sorted_keys[pos[found]] == values[found]
    return found


def write_predictions(path, output: ScoredTriples, vocab: Vocabulary):
    """Tab-separated (subject, relation, object, score) lines, best first."""
    with open(path, "w", encoding="utf-8") as handle:
        for (s, r, o), score in zip(output.triples, output.scores):
            handle.write(
                f"{vocab.entity_labels[s]}\t{vocab.relation_labels[r]}\t"
                f"{vocab.entity_labels[o]}\t{score:.12g}\n"
            )


def write_curve(path, curve: list[CurvePoint]):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("n\tn_corr\tn_pred\tn_error\tp_n\n")
        for point in curve:
            precision = "NA" if point.precision is None else f"{point.precision:.6f}"
            handle.write(
                f"{point.n}\t{point.n_corr}\t{point.n_pred}\t{point.n_error}\t{precision}\n"
            )
