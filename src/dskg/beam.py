"""Whole-triple generation by two-stage wide beam search, plus its precision curve.

Stage 1 scores every (entity, relation) pair by the relation's probability
given the entity and keeps the best ``stage1_window`` pairs. Stage 2 extends
each surviving pair with every object entity, scoring a triple by
p(r | s) * p(o | s, r), and keeps the best ``stage2_window`` triples, sorted
by descending score. Ordering is a total order (score descending, then ids
ascending), so at a given chunk size the output is identical for any worker
count. Across chunk sizes scores may move in their last bits, as BLAS picks
its kernel by row count; the CLI fixes the chunk sizes.

Both stages keep their best candidates in one bounded pool of int64 keys
whose ascending order is ascending id order (``e * R + r`` for a pair,
``(s * R + r) * N + o`` for a triple), selected by a partition on score and
sorted only once, at the end. Each scoring thread scores one fresh block at a
time, ``(entity_chunk, R)`` in stage 1 and ``(pair_chunk, N)`` in stage 2,
and cuts it down to copies of the entries that can still enter the pool
before it returns, so memory is one block per worker plus the survivors.
``evaluation.map_chunks`` pins glibc's malloc thresholds, so each block
reuses the memory its predecessor freed. The precision curve tests its
outputs against the dataset's sorted fact keys by binary search.

Both stages score through ``evaluation.relation_scores_batch`` and
``entity_scores_batch``, so a model with non-finite logits raises the same
ValueError as ranking does instead of yielding an empty beam.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import (
    IndexedDataset, Vocabulary, _encode_pairs, _encode_triples, atomic_write, check_key_range,
)
from .evaluation import entity_scores_batch, map_chunks, relation_scores_batch
from .model import ModelParams


@dataclass
class BeamConfig:
    stage1_window: int = 100_000
    stage2_window: int = 1_000_000
    canonicalize: bool = True
    curve_points: int = 1000

    def __post_init__(self):
        for name, window in (("stage1_window", self.stage1_window),
                             ("stage2_window", self.stage2_window)):
            if window < 1:
                raise ValueError(f"{name} must be >= 1, got {window}")
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
    stage-2 key is ``(s * R + r) * N + o``, the ``_encode_triples`` key.

    The work is split between the threads that score and the one that
    consumes. ``select`` runs on a scoring thread: it cuts a score block down
    to copies of the entries that can still enter the pool, so the block can
    be freed when it returns. ``offer`` runs on the consuming thread and folds
    those survivors into the pool, which it cuts back to ``limit`` by a
    partition on score plus the smallest keys of the tie band at the cutoff;
    only ``finish`` sorts. Given the same scores, the pool holds the same
    entries whatever the chunking, worker count or timing: every global
    top-``limit`` candidate is within its own block's top ``limit``, and the
    cutoff a scoring thread reads only ever rises.

    Scores must be finite: NaN fails every ``>= cutoff`` test and would be
    dropped without a trace. The stages select from softmax blocks, which
    ``evaluation._softmax64`` has already checked.
    """

    def __init__(self, limit: int):
        self.limit = limit
        self.keys = np.empty(0, dtype=np.int64)
        self.scores = np.empty(0, dtype=np.float64)
        self.cutoff = -np.inf

    def select(self, row_keys: np.ndarray, scores: np.ndarray):
        """Copies of the keys and scores in a (rows, width) block that may enter
        the pool; entry (i, j) has key ``row_keys[i] * width + j``.

        Safe on any thread. The cutoff is read once, and a stale one only lets
        more entries through. When more than ``limit`` pass it, the block's
        own ``limit``-th best score is used instead, keeping its whole tie band.
        """
        width = scores.shape[1]
        flat = scores.reshape(-1)
        passing = flat >= self.cutoff  # ties at the cutoff may still win on keys
        if np.count_nonzero(passing) > self.limit:
            kth = len(flat) - self.limit
            passing = flat >= np.partition(flat, kth)[kth]
        index = np.flatnonzero(passing)
        rows, cols = np.divmod(index, width)
        return _encode_pairs(row_keys[rows], cols, width), flat[index]

    def offer(self, keys: np.ndarray, scores: np.ndarray):
        """Fold in the survivors of ``select``, on the consuming thread."""
        keep = scores >= self.cutoff
        self.keys = np.concatenate([self.keys, keys[keep]])
        self.scores = np.concatenate([self.scores, scores[keep]])
        # the first full pool is cut at once, so scoring threads get a finite
        # cutoff early; after that the pool may grow to 3 * limit between cuts
        if len(self.scores) >= (self.limit if self.cutoff == -np.inf else 3 * self.limit):
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

    def select_span(span):
        entities = np.arange(*span, dtype=np.int64)
        return pool.select(entities, relation_scores_batch(params, entities))

    for keys, scores in map_chunks(select_span, params.num_entities, entity_chunk, workers):
        pool.offer(keys, scores)
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

    def select_span(span):
        lo, hi = span
        probs = entity_scores_batch(params, pair_ids[lo:hi, 0], pair_ids[lo:hi, 1])
        probs *= pair_scores[lo:hi, None]
        return pool.select(pair_keys[lo:hi], probs)

    for keys, scores in map_chunks(select_span, len(pair_ids), pair_chunk, workers):
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
    distinct, first = np.unique(keys, return_index=True)
    # searched in key order, then put in rank order among deduplicated outputs
    rank_order = np.argsort(first)
    correct = _in_sorted(distinct, dataset.correct_keys)[rank_order]
    predictable = _in_sorted(distinct, dataset.predict_keys)[rank_order]
    cum_corr = np.cumsum(correct)
    cum_pred = np.cumsum(predictable)

    total = len(distinct)
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
    """Tab-separated (subject, relation, object, score) lines, best first.

    Written atomically: a write that fails part-way leaves any previous file.
    """
    with atomic_write(path) as buf:
        for (s, r, o), score in zip(output.triples, output.scores):
            buf.write(
                f"{vocab.entity_labels[s]}\t{vocab.relation_labels[r]}\t"
                f"{vocab.entity_labels[o]}\t{score:.12g}\n".encode()
            )


def write_curve(path, curve: list[CurvePoint]):
    """The curve as a TSV with a header line, written atomically."""
    with atomic_write(path) as buf:
        buf.write(b"n\tn_corr\tn_pred\tn_error\tp_n\n")
        for point in curve:
            precision = "NA" if point.precision is None else f"{point.precision:.6f}"
            buf.write(
                f"{point.n}\t{point.n_corr}\t{point.n_pred}\t{point.n_error}\t{precision}\n"
                .encode()
            )
