"""Whole-triple generation by two-stage wide beam search, plus its precision curve.

Stage 1 scores every (entity, relation) pair by the relation's probability
given the entity and keeps the best ``stage1_window`` pairs. Stage 2 extends
each surviving pair with every object entity, scoring a triple by
p(r | s) * p(o | s, r), and keeps the best ``stage2_window`` triples, sorted
by descending score. Ordering is a total order (score descending, then ids
ascending) so results do not depend on chunking or worker count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import IndexedDataset, Vocabulary, _encode_triples
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


@dataclass
class ScoredTriples:
    """Triples (n, 3) with scores (n,), sorted by the beam's total order."""

    triples: np.ndarray
    scores: np.ndarray

    def __len__(self) -> int:
        return len(self.scores)


class _TopK:
    """Bounded best-k pool under (score desc, columns asc) total order."""

    def __init__(self, limit: int, id_columns: int):
        self.limit = limit
        self.id_columns = id_columns
        self.ids = np.empty((0, id_columns), dtype=np.int64)
        self.scores = np.empty(0, dtype=np.float64)
        self.cutoff = -np.inf

    def _order(self, ids, scores):
        keys = tuple(ids[:, col] for col in reversed(range(self.id_columns)))
        return np.lexsort(keys + (-scores,))

    def offer(self, ids: np.ndarray, scores: np.ndarray):
        if self.cutoff > -np.inf:
            keep = scores >= self.cutoff  # ties at the cutoff may still win on ids
            ids, scores = ids[keep], scores[keep]
        if not len(scores):
            return
        self.ids = np.concatenate([self.ids, ids])
        self.scores = np.concatenate([self.scores, scores])
        if len(self.scores) >= 3 * self.limit:
            self._compress()

    def _compress(self):
        order = self._order(self.ids, self.scores)[: self.limit]
        self.ids = self.ids[order]
        self.scores = self.scores[order]
        if len(self.scores) == self.limit:
            self.cutoff = self.scores[-1]

    def finish(self):
        self._compress()
        return self.ids, self.scores


def stage1_pairs(
    params: ModelParams, config: BeamConfig, *, entity_chunk: int = 512, workers: int = 1
) -> ScoredTriples:
    """Top (entity, relation) pairs by relation probability given the entity.

    Returns pair ids in a (n, 2) array with scores, ordered by score
    descending then (entity, relation) ascending.
    """
    num_entities = params.num_entities
    num_relations = params.num_relations
    pool = _TopK(config.stage1_window, id_columns=2)

    def score_span(span):
        lo, hi = span
        probs = relation_scores_batch(params, np.arange(lo, hi))
        ents = np.repeat(np.arange(lo, hi, dtype=np.int64), num_relations)
        rels = np.tile(np.arange(num_relations, dtype=np.int64), hi - lo)
        return np.column_stack([ents, rels]), probs.reshape(-1)

    for ids, scores in map_chunks(score_span, num_entities, entity_chunk, workers):
        pool.offer(ids, scores)
    ids, scores = pool.finish()
    return ScoredTriples(triples=ids, scores=scores)


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
    if pair_chunk is None:
        pair_chunk = max(1, 2_000_000 // max(num_entities, 1))
    pool = _TopK(config.stage2_window, id_columns=3)
    pair_ids, pair_scores = pairs.triples, pairs.scores

    def score_span(span):
        lo, hi = span
        subjects = pair_ids[lo:hi, 0]
        relations = pair_ids[lo:hi, 1]
        probs = entity_scores_batch(params, subjects, relations)
        scores = (pair_scores[lo:hi, None] * probs).reshape(-1)
        ids = np.empty((len(scores), 3), dtype=np.int64)
        ids[:, 0] = np.repeat(subjects, num_entities)
        ids[:, 1] = np.repeat(relations, num_entities)
        ids[:, 2] = np.tile(np.arange(num_entities, dtype=np.int64), hi - lo)
        return ids, scores

    for ids, scores in map_chunks(score_span, len(pair_ids), pair_chunk, workers):
        pool.offer(ids, scores)
    ids, scores = pool.finish()
    return ScoredTriples(triples=ids, scores=scores)


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
    sample_points=None,
    *,
    canonicalize: bool = True,
    max_points: int = 1000,
) -> list[CurvePoint]:
    """Precision over the top-n outputs for a grid of n values.

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

    correct = np.isin(keys, dataset.correct_keys)
    predictable = np.isin(keys, dataset.predict_keys)
    cum_corr = np.cumsum(correct)
    cum_pred = np.cumsum(predictable)

    total = len(keys)
    if total == 0:
        return []
    if sample_points is None:
        grid = np.unique(
            np.concatenate(
                [np.linspace(1, total, num=min(max_points, total)).astype(np.int64), [total]]
            )
        )
    else:
        grid = np.unique(np.asarray(sample_points, dtype=np.int64))
        if len(grid) and (grid.min() < 1 or grid.max() > total):
            raise ValueError("sample points must lie in 1..len(output)")

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
