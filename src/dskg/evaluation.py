"""Filtered entity ranking, cascade ranking, and relation-based rescoring.

Every test triple (s, r, o) is evaluated in both directions: the tail query
(s, r, ?) ranks o and the head query (o, r-reverse, ?) ranks s, so the
reported metrics aggregate 2x the split size. Ranking is filtered: known
correct answers other than the queried one are ignored. Score vectors are
softmax probabilities computed in float64 so repeated runs and downstream
score recomputations are exactly reproducible.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .data import IndexedDataset
from .model import ModelParams, entity_step, forward_batch, logits


@dataclass
class EnhanceConfig:
    """Rescoring switch: refined(e) = reverse_prob(e) ** alpha * original(e)."""

    alpha: float = 1.0 / 3.0
    enabled: bool = True

    def __post_init__(self):
        if self.enabled and not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must be in (0, 1) when enhancement is enabled")


@dataclass
class MetricsReport:
    """Ranking metrics; hits and MRR are percentages to match table style."""

    hits1: float
    hits10: float
    mrr: float
    mr: float
    count: int
    ranks: np.ndarray | None = None
    relation_ranks: np.ndarray | None = None

    def as_dict(self) -> dict:
        return {
            "hits@1": self.hits1,
            "hits@10": self.hits10,
            "mrr": self.mrr,
            "mr": self.mr,
            "queries": self.count,
        }


def metrics_from_ranks(ranks, keep_ranks: bool = False, relation_ranks=None) -> MetricsReport:
    ranks = np.asarray(ranks, dtype=np.int64)
    if len(ranks) == 0:
        raise ValueError("no queries to aggregate")
    return MetricsReport(
        hits1=100.0 * float(np.mean(ranks <= 1)),
        hits10=100.0 * float(np.mean(ranks <= 10)),
        mrr=100.0 * float(np.mean(1.0 / ranks)),
        mr=float(np.mean(ranks)),
        count=len(ranks),
        ranks=ranks if keep_ranks else None,
        relation_ranks=np.asarray(relation_ranks, dtype=np.int64)
        if keep_ranks and relation_ranks is not None
        else None,
    )


def _softmax64(raw: np.ndarray) -> np.ndarray:
    scores = raw.astype(np.float64)
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=-1, keepdims=True)
    return scores


def entity_scores_batch(params: ModelParams, subjects, relations) -> np.ndarray:
    """Probability rows over all entities for (s, r, ?) queries."""
    _, h_r, _ = forward_batch(params, subjects, relations)
    return _softmax64(logits(params, h_r, "entity"))


def relation_scores_batch(params: ModelParams, subjects) -> np.ndarray:
    """Probability rows over all relations given each subject entity.

    Runs only the entity step of the forward pass; the relation step of the
    model never feeds back into this hidden state.
    """
    h_s, *_ = entity_step(params, subjects)
    return _softmax64(logits(params, h_s, "relation"))


def entity_scores(params: ModelParams, subject: int, relation: int) -> np.ndarray:
    return entity_scores_batch(params, [subject], [relation])[0]


def relation_scores(params: ModelParams, subject: int) -> np.ndarray:
    return relation_scores_batch(params, [subject])[0]


def relation_prob_matrix(
    params: ModelParams, chunk: int = 1024, workers: int = 1
) -> np.ndarray:
    """(num_entities, num_relations) relation probabilities, one batched pass."""
    rows = map_chunks(
        lambda span: relation_scores_batch(params, np.arange(span[0], span[1])),
        params.num_entities,
        chunk,
        workers,
    )
    return np.concatenate(list(rows), axis=0)


def filtered_rank(scores, gold: int, known, *, pessimistic: bool = False) -> int:
    """Rank of the gold label with other known answers filtered out.

    Optimistic (default) rule: rank = 1 + number of unfiltered competitors
    scoring strictly higher; the pessimistic flag counts ties against the
    gold label instead.
    """
    scores = np.asarray(scores)
    known = np.unique(np.asarray(known, dtype=np.int64).reshape(-1))
    if gold not in known:
        raise ValueError(f"gold label {gold} missing from the known-answer set")
    gold_score = scores[gold]
    # gold is in `known`, so it never counts among the surviving competitors
    better = scores >= gold_score if pessimistic else scores > gold_score
    return 1 + int(better.sum() - better[known].sum())


def unfiltered_rank(scores, gold: int, *, pessimistic: bool = False) -> int:
    scores = np.asarray(scores)
    gold_score = scores[gold]
    if pessimistic:
        return int((scores >= gold_score).sum())
    return 1 + int((scores > gold_score).sum())


def enhance_scores(p_orig, reverse_probs, alpha: float) -> np.ndarray:
    """Rescale entity probabilities by reverse-relation evidence.

    Each entity's probability is multiplied by its probability of carrying
    the query relation's reverse, raised to alpha in (0, 1): near-zero
    reverse evidence crushes a candidate while strong evidence barely moves
    it, widening the gap between plausible and implausible entities.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    p_orig = np.asarray(p_orig, dtype=np.float64)
    if np.any(p_orig < 0):
        raise ValueError("original scores must be non-negative")
    return np.asarray(reverse_probs, dtype=np.float64) ** alpha * p_orig


def map_chunks(fn, total: int, chunk: int, workers: int):
    """Yield ``fn((lo, hi))`` for consecutive spans covering ``range(total)``, in order.

    Lazy with one worker, so a consumer can fold each result in before the
    next span is scored. With more workers the spans run on a thread pool,
    at most ``2 * workers`` of them submitted and not yet consumed, so
    finished results cannot pile up behind a slow consumer. ``workers < 1``
    raises ``ValueError`` at the call, before any span is scored.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    spans = [(start, min(start + chunk, total)) for start in range(0, total, chunk)]
    if workers == 1 or len(spans) <= 1:
        return map(fn, spans)
    return _map_threaded(fn, spans, workers)


def _map_threaded(fn, spans, workers: int):
    with ThreadPoolExecutor(max_workers=workers) as pool:
        pending = deque()
        for span in spans:
            if len(pending) == 2 * workers:
                yield pending.popleft().result()
            pending.append(pool.submit(fn, span))
        while pending:
            yield pending.popleft().result()


def _both_direction_queries(dataset: IndexedDataset, split: str):
    triples = dataset.split(split)
    rev = dataset.vocab.reverse_of
    subjects = np.concatenate([triples[:, 0], triples[:, 2]])
    relations = np.concatenate([triples[:, 1], rev[triples[:, 1]]])
    golds = np.concatenate([triples[:, 2], triples[:, 0]])
    return subjects, relations, golds


def evaluate_entity_prediction(
    params: ModelParams,
    dataset: IndexedDataset,
    enhance: EnhanceConfig = EnhanceConfig(),
    *,
    split: str = "test",
    chunk: int = 256,
    keep_ranks: bool = False,
    pessimistic: bool = False,
    workers: int = 1,
) -> MetricsReport:
    """Filtered ranking over both directions of every triple in the split."""
    subjects, relations, golds = _both_direction_queries(dataset, split)
    rel_matrix = (
        relation_prob_matrix(params, workers=workers) if enhance.enabled else None
    )
    rev = dataset.vocab.reverse_of

    def rank_span(span):
        lo, hi = span
        probs = entity_scores_batch(params, subjects[lo:hi], relations[lo:hi])
        if enhance.enabled:
            probs = rel_matrix[:, rev[relations[lo:hi]]].T ** enhance.alpha * probs
        out = np.empty(hi - lo, dtype=np.int64)
        for i in range(hi - lo):
            known = dataset.known_answers(int(subjects[lo + i]), int(relations[lo + i]))
            out[i] = filtered_rank(
                probs[i], int(golds[lo + i]), known, pessimistic=pessimistic
            )
        return out

    ranks = np.concatenate(list(map_chunks(rank_span, len(subjects), chunk, workers)))
    return metrics_from_ranks(ranks, keep_ranks=keep_ranks)


def evaluate_cascade(
    params: ModelParams,
    dataset: IndexedDataset,
    enhance: EnhanceConfig = EnhanceConfig(enabled=False),
    *,
    split: str = "test",
    chunk: int = 256,
    keep_ranks: bool = False,
    pessimistic: bool = False,
    workers: int = 1,
) -> MetricsReport:
    """Rank products: (unfiltered relation rank) x (filtered entity rank)."""
    subjects, relations, golds = _both_direction_queries(dataset, split)
    rel_matrix = (
        relation_prob_matrix(params, workers=workers) if enhance.enabled else None
    )
    rev = dataset.vocab.reverse_of

    def rank_span(span):
        lo, hi = span
        probs = entity_scores_batch(params, subjects[lo:hi], relations[lo:hi])
        if enhance.enabled:
            probs = rel_matrix[:, rev[relations[lo:hi]]].T ** enhance.alpha * probs
        rel_probs = relation_scores_batch(params, subjects[lo:hi])
        ent = np.empty(hi - lo, dtype=np.int64)
        rel = np.empty(hi - lo, dtype=np.int64)
        for i in range(hi - lo):
            known = dataset.known_answers(int(subjects[lo + i]), int(relations[lo + i]))
            ent[i] = filtered_rank(
                probs[i], int(golds[lo + i]), known, pessimistic=pessimistic
            )
            rel[i] = unfiltered_rank(
                rel_probs[i], int(relations[lo + i]), pessimistic=pessimistic
            )
        return ent, rel

    parts = list(map_chunks(rank_span, len(subjects), chunk, workers))
    entity_ranks = np.concatenate([p[0] for p in parts])
    relation_ranks = np.concatenate([p[1] for p in parts])
    return metrics_from_ranks(
        entity_ranks * relation_ranks, keep_ranks=keep_ranks, relation_ranks=relation_ranks
    )


def format_report(report: MetricsReport, title: str, notes: Iterable[str] = ()) -> str:
    """Human-readable header block followed by machine-readable key=value lines."""
    lines = [f"# {title}"]
    lines.extend(f"# {note}" for note in notes)
    lines.append("# metrics over both query directions (tail and head)")
    lines.append(
        f"# {'Hits@1':>8} {'Hits@10':>8} {'MRR':>8} {'MR':>10} {'queries':>9}"
    )
    lines.append(
        f"# {report.hits1:8.2f} {report.hits10:8.2f} {report.mrr:8.2f}"
        f" {report.mr:10.2f} {report.count:9d}"
    )
    for key, value in report.as_dict().items():
        if isinstance(value, float):
            lines.append(f"{key}={value:.6f}")
        else:
            lines.append(f"{key}={value}")
    return "\n".join(lines) + "\n"


def write_ranks_dump(path, dataset: IndexedDataset, split: str, report: MetricsReport):
    """Per-query dump: s, r, o labels, direction, rank, relation_rank."""
    if report.ranks is None:
        raise ValueError("report was built without keep_ranks")
    triples = dataset.split(split)
    vocab = dataset.vocab
    n = len(triples)
    with open(path, "w", encoding="utf-8") as handle:
        for qi in range(report.count):
            direction = "tail" if qi < n else "head"
            s, r, o = triples[qi % n]
            rel_rank = (
                str(int(report.relation_ranks[qi]))
                if report.relation_ranks is not None
                else "-"
            )
            handle.write(
                f"{vocab.entity_labels[s]}\t{vocab.relation_labels[r]}\t"
                f"{vocab.entity_labels[o]}\t{direction}\t{int(report.ranks[qi])}\t{rel_rank}\n"
            )
