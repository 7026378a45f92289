"""Filtered entity ranking, cascade ranking, and relation-based rescoring.

Every test triple (s, r, o) is evaluated in both directions: the tail query
(s, r, ?) ranks o and the head query (o, r-reverse, ?) ranks s, so the
reported metrics aggregate 2x the split size. Ranking is filtered: known
correct answers other than the queried one are ignored. Score vectors are
softmax probabilities computed in float64 so repeated runs and downstream
score recomputations are exactly reproducible.

All four reports (plain and enhanced, entity and cascade) come from one pass,
``evaluate_variants``: each chunk of queries is scored once, and its
``(chunk, N)`` probability block is ranked in one step against the known
answers, which ``IndexedDataset.answer_spans`` finds in the sorted triple
keys. Enhancement needs ``p(r | e) ** alpha`` only for the reverse relations
the queries use: ``relation_prob_matrix`` fills that ``(U, N)`` block one
entity chunk at a time, so no ``(N, R)`` relation matrix is built, and each
query's row multiplies its probabilities in place. Memory is bounded by the
chunk: each worker thread scores a chunk into fresh logits and probability
arrays and is done with them before it takes the next, plus that ``(U, N)``
block. ``map_chunks``, behind every pass, pins glibc's malloc thresholds
(``model._pin_malloc``), so what one chunk frees is reused by the next rather
than faulted in again. Every score passes through ``_softmax64``, which
raises ValueError on a row it cannot normalize (a NaN or +inf logit, or all
-inf), so a diverged model never reports a perfect rank.
``evaluate_entity_prediction`` and ``evaluate_cascade`` are views of the same
pass that compute only what their one report needs. ``filtered_rank`` and
``unfiltered_rank`` remain the one-query definitions the batched ranks are
tested against.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .data import IndexedDataset, _span_items, atomic_write
from .model import ModelParams, _pin_malloc, entity_step, forward_batch, logits


@dataclass
class EnhanceConfig:
    """Rescoring switch: refined(e) = reverse_prob(e) ** alpha * original(e)."""

    alpha: float = 1.0 / 3.0
    enabled: bool = True

    def __post_init__(self):
        if self.enabled and not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")


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
    """Float64 softmax of each row of ``raw``, as a new array."""
    scores = raw.astype(np.float64)
    top = scores.max(axis=-1, keepdims=True)
    # NaN or +inf anywhere in a row, or a row of all -inf, makes its max
    # non-finite; every other row gives finite probabilities.
    if not np.all(np.isfinite(top)):
        raise ValueError("cannot rank non-finite scores")
    scores -= top
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


def relation_prob_matrix(
    params: ModelParams, relations, alpha: float, chunk: int = 1024, workers: int = 1
) -> np.ndarray:
    """``p(r | e) ** alpha`` for the given relations, as a C-contiguous
    ``(len(relations), N)`` block.

    Row i holds every entity's probability of ``relations[i]`` given the
    entity, raised to alpha. Entities are scored ``chunk`` at a time on
    ``workers`` threads, one ``(chunk, R)`` block each, and each chunk's
    columns are raised straight into its slice of the block, so the full
    ``(N, R)`` matrix is never built.
    """
    relations = np.asarray(relations, dtype=np.int64)
    power = np.empty((len(relations), params.num_entities))

    def fill(span):
        lo, hi = span
        probs = relation_scores_batch(params, np.arange(lo, hi))
        np.power(probs[:, relations].T, alpha, out=power[:, lo:hi])

    deque(map_chunks(fill, params.num_entities, chunk, workers), maxlen=0)
    return power


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
    or ``chunk < 1`` raises ``ValueError`` at the call, before any span is
    scored. Otherwise the call pins glibc's malloc thresholds for the rest of
    the process (``model._pin_malloc``), so the arrays one span frees serve
    the next.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if chunk < 1:
        raise ValueError(f"chunk must be >= 1, got {chunk}")
    _pin_malloc()
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


def filtered_ranks(block, golds, lo, hi, objects, *, pessimistic: bool = False) -> np.ndarray:
    """``filtered_rank`` of every row of a ``(m, N)`` score block at once.

    Row i ranks ``golds[i]`` against the known answers
    ``objects[lo[i]:hi[i]]``, which must be distinct (as
    ``IndexedDataset.answer_spans`` gives them). The block is compared with
    its gold column once, and the known answers' hits are taken off with one
    masked gather.
    """
    golds = np.asarray(golds, dtype=np.int64)
    better = _beats_gold(block, golds, pessimistic)
    owner, at = _span_items(lo, hi)  # the row of each known answer, and its index
    cols = objects[at]
    missing = np.ones(len(golds), dtype=bool)
    missing[owner[cols == golds[owner]]] = False
    if missing.any():
        gold = golds[np.argmax(missing)]
        raise ValueError(f"gold label {gold} missing from the known-answer set")
    # every gold is among its row's known answers, so it is never counted
    known_better = np.bincount(owner[better[owner, cols]], minlength=len(golds))
    return 1 + np.count_nonzero(better, axis=1) - known_better


def unfiltered_ranks(block, golds, *, pessimistic: bool = False) -> np.ndarray:
    """``unfiltered_rank`` of every row of a score block, from one compare."""
    better = np.count_nonzero(_beats_gold(block, golds, pessimistic), axis=1)
    return better if pessimistic else 1 + better


def _beats_gold(block, golds, pessimistic: bool) -> np.ndarray:
    gold_scores = block[np.arange(len(golds)), golds][:, None]
    return block >= gold_scores if pessimistic else block > gold_scores


def _both_direction_queries(dataset: IndexedDataset, split: str):
    triples = dataset.split(split)
    if len(triples) == 0:
        raise ValueError(f"split {split!r} has no triples to evaluate")
    rev = dataset.vocab.reverse_of
    subjects = np.concatenate([triples[:, 0], triples[:, 2]])
    relations = np.concatenate([triples[:, 1], rev[triples[:, 1]]])
    golds = np.concatenate([triples[:, 2], triples[:, 0]])
    return subjects, relations, golds


VARIANTS = ("entity_plain", "entity_enhanced", "cascade_plain", "cascade_enhanced")


def _reverse_power_block(params, relations, rev, alpha: float, workers: int):
    """The ``(U, N)`` block of ``reverse_prob ** alpha`` over the U distinct
    reverse relations that ``relations`` use, and each query's row in it."""
    used, row_of = np.unique(rev[relations], return_inverse=True)
    return relation_prob_matrix(params, used, alpha, workers=workers), row_of


def _rank_pass(params, dataset, *, plain, alpha, relation, split, chunk, pessimistic, workers):
    """One scoring of each chunk of the split's queries, ranked every way asked.

    Returns a dict with the filtered entity ranks ``"plain"`` (if ``plain``),
    ``"enhanced"`` (if ``alpha`` is not None) and the unfiltered relation
    ranks ``"relation"`` (if ``relation``). A chunk's ``chunk`` x N scores
    are ranked every way and dropped before its thread scores the next
    chunk. Enhancing adds the reverse-power block.
    """
    subjects, relations, golds = _both_direction_queries(dataset, split)
    lo, hi = dataset.answer_spans(subjects, relations)
    objects = dataset.answer_objects

    def rank_span(span):
        q = slice(*span)
        probs = entity_scores_batch(params, subjects[q], relations[q])
        out = {}
        if plain:
            out["plain"] = filtered_ranks(
                probs, golds[q], lo[q], hi[q], objects, pessimistic=pessimistic
            )
        if alpha is not None:
            for i, row in enumerate(power_row[q]):
                np.multiply(power[row], probs[i], out=probs[i])
            out["enhanced"] = filtered_ranks(
                probs, golds[q], lo[q], hi[q], objects, pessimistic=pessimistic
            )
        if relation:
            out["relation"] = unfiltered_ranks(
                relation_scores_batch(params, subjects[q]), relations[q], pessimistic=pessimistic
            )
        return out

    # made first, so a bad chunk or worker count fails before the block is built
    spans = map_chunks(rank_span, len(subjects), chunk, workers)
    if alpha is not None:
        power, power_row = _reverse_power_block(
            params, relations, dataset.vocab.reverse_of, alpha, workers
        )
    parts = list(spans)
    return {key: np.concatenate([part[key] for part in parts]) for key in parts[0]}


def evaluate_variants(
    params: ModelParams,
    dataset: IndexedDataset,
    variants: Iterable[str] = VARIANTS,
    *,
    alpha: float = EnhanceConfig.alpha,
    split: str = "test",
    chunk: int = 256,
    keep_ranks: bool = False,
    pessimistic: bool = False,
    workers: int = 1,
) -> dict[str, MetricsReport]:
    """Reports for the named ``VARIANTS`` from one pass over the split.

    Each chunk is scored once, the reverse-power block is built at most once,
    and only the ranks the asked-for variants need are computed. ``entity_*`` are
    filtered entity ranks; ``cascade_*`` multiply them by the unfiltered
    relation rank; ``*_enhanced`` rescore with reverse-relation evidence.
    """
    variants = list(variants)
    if not variants:
        raise ValueError("no evaluation variant asked for")
    unknown = sorted(set(variants) - set(VARIANTS))
    if unknown:
        raise ValueError(f"unknown evaluation variants: {unknown}")
    enhanced = any(name.endswith("_enhanced") for name in variants)
    if enhanced:
        EnhanceConfig(alpha=alpha)  # validates alpha
    ranks = _rank_pass(
        params, dataset,
        plain=any(name.endswith("_plain") for name in variants),
        alpha=alpha if enhanced else None,
        relation=any(name.startswith("cascade_") for name in variants),
        split=split, chunk=chunk, pessimistic=pessimistic, workers=workers,
    )
    reports = {}
    for name in variants:
        family, kind = name.split("_")
        if family == "entity":
            reports[name] = metrics_from_ranks(ranks[kind], keep_ranks=keep_ranks)
        else:
            reports[name] = metrics_from_ranks(
                ranks[kind] * ranks["relation"],
                keep_ranks=keep_ranks, relation_ranks=ranks["relation"],
            )
    return reports


def _one_variant(family, params, dataset, enhance, **options) -> MetricsReport:
    name = f"{family}_{'enhanced' if enhance.enabled else 'plain'}"
    return evaluate_variants(params, dataset, [name], alpha=enhance.alpha, **options)[name]


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
    return _one_variant(
        "entity", params, dataset, enhance, split=split, chunk=chunk,
        keep_ranks=keep_ranks, pessimistic=pessimistic, workers=workers,
    )


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
    return _one_variant(
        "cascade", params, dataset, enhance, split=split, chunk=chunk,
        keep_ranks=keep_ranks, pessimistic=pessimistic, workers=workers,
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
    """Per-query dump: s, r, o labels, direction, rank, relation_rank; atomic."""
    if report.ranks is None:
        raise ValueError("report was built without keep_ranks")
    triples = dataset.split(split)
    vocab = dataset.vocab
    n = len(triples)
    with atomic_write(path) as buf:
        for qi in range(report.count):
            direction = "tail" if qi < n else "head"
            s, r, o = triples[qi % n]
            rel_rank = "-" if report.relation_ranks is None else int(report.relation_ranks[qi])
            buf.write(
                f"{vocab.entity_labels[s]}\t{vocab.relation_labels[r]}\t"
                f"{vocab.entity_labels[o]}\t{direction}\t{int(report.ranks[qi])}\t{rel_rank}\n"
                .encode()
            )
