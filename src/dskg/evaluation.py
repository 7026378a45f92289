"""Filtered entity ranking, cascade ranking, and relation-based rescoring.

Every test triple (s, r, o) is evaluated in both directions: the tail query
(s, r, ?) ranks o and the head query (o, r-reverse, ?) ranks s, so the
reported metrics aggregate 2x the split size. These are the rows
``data.augment_reverse`` gives for the split, tail queries first. Ranking is
filtered: known correct answers other than the queried one are ignored.
Score vectors are softmax probabilities computed in float64 so repeated runs
and downstream score recomputations are exactly reproducible, and a rank is
the rank those probabilities give.

All four reports (plain and enhanced, entity and cascade) come from one pass,
``evaluate_variants``. Each chunk of queries is scored once, into float32
logits from one GEMM (``entity_logits_batch``), and most rows are ranked
without building probabilities, from a certified rank: one the float64
softmax provably cannot change.

- A plain row is certified when its gold logit g has |g| > 1e-6 (1 + |top|)
  and g - top > -680, top being the row's largest logit. Distinct float32
  values near g then lie ~3e-8 |g| apart, a gap the float64 subtract, exp
  and divide cannot close, and exact ties stay ties, so the rank is counted
  on the logits.
- An enhanced row is ranked on ``T = alpha * log p(r' | e) + logit(e)``, r'
  the query's reverse relation, formed as one float64 N-vector at a time.
  It is certified when T at the gold is finite, the gold's probability is a
  normal float64 (T_g - top > -680 + log N), and no other entry lies within
  eps = 1e-11 (1 + |T_g| + |top|) of T_g.

A row falls back to the exact path, its float64 softmax (times its
``relation_prob_matrix`` row when enhanced) ranked by ``filtered_ranks``,
when its certificate fails: float64 logits (``--precision high``; no plain
row is certified from them), a gold logit near zero or more than 680 below
the top, an exact or near tie of T, or a reverse relation whose
``p(r' | e)`` falls below e^-700 for some entity, where its float64 power
may no longer be ``exp(alpha * log p)``. The pass builds the ``(U, N)``
log-evidence block of ``log_evidence_block``, ``alpha * log p(r' | e)`` for
the U reverse relations the queries use, in place of the ``p ** alpha``
block; it builds ``relation_prob_matrix``'s block at most once, and only
when some enhanced row falls back. Ranking keeps no ``(chunk, N)`` float64
array: a chunk's float32 logits, one N-vector of T per enhanced row, and
the probabilities of its fallback rows.

Known answers come from ``IndexedDataset.answer_spans``, in the sorted
triple keys. Memory is bounded by the chunk: each worker thread scores a
chunk into fresh arrays and is done with them before it takes the next,
plus the ``(U, N)`` block. ``map_chunks``, behind every pass, pins glibc's
malloc thresholds (``model._pin_malloc``), so what one chunk frees is reused
by the next rather than faulted in again. A row whose largest logit is not
finite (a NaN or +inf logit, or all -inf) raises ValueError, as
``_softmax64`` does, so a diverged model never reports a perfect rank.
``evaluate_entity_prediction`` and ``evaluate_cascade`` are views of the same
pass that compute only what their one report needs. ``entity_scores_batch``,
``relation_scores_batch``, ``relation_prob_matrix`` and ``filtered_ranks``
stay the exact path, and ``filtered_rank`` and ``unfiltered_rank`` remain
the one-query definitions the batched ranks are tested against.
"""
from __future__ import annotations

import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .data import IndexedDataset, _span_items, atomic_write, augment_reverse
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


def entity_logits_batch(params: ModelParams, subjects, relations) -> np.ndarray:
    """Entity logit rows, in the model's dtype, for (s, r, ?) queries: one GEMM."""
    _, h_r, _ = forward_batch(params, subjects, relations)
    return logits(params, h_r, "entity")


def entity_scores_batch(params: ModelParams, subjects, relations) -> np.ndarray:
    """Probability rows over all entities for (s, r, ?) queries."""
    return _softmax64(entity_logits_batch(params, subjects, relations))


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
    ``(N, R)`` matrix is never built. An alpha outside (0, 1) raises
    ``ValueError`` before any entity is scored.
    """
    EnhanceConfig(alpha=alpha)  # validates alpha
    relations = np.asarray(relations, dtype=np.int64)
    power = np.empty((len(relations), params.num_entities))

    def fill(span):
        lo, hi = span
        probs = relation_scores_batch(params, np.arange(lo, hi))
        np.power(probs[:, relations].T, alpha, out=power[:, lo:hi])

    deque(map_chunks(fill, params.num_entities, chunk, workers), maxlen=0)
    return power


def log_evidence_block(
    params: ModelParams, relations, alpha: float, chunk: int = 1024, workers: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """``alpha * log p(r | e)`` for the given relations, as a C-contiguous
    float64 ``(len(relations), N)`` block, and per relation whether some
    entity's ``p(r | e)`` is below ``e ** -700``.

    The log-space twin of ``relation_prob_matrix``: each entity chunk's
    relation logits take a log-softmax, ``(l - top) - log(sum(exp(l - top)))``,
    with no divide and no power. Near ``e ** -708`` a float64 probability
    stops being a normal number, and the power of a subnormal or zero
    probability is not ``exp(alpha * log p)``; the flag, set below
    ``e ** -700``, sends the queries of such a relation to the exact ranks.
    An alpha outside (0, 1) raises ``ValueError`` before any entity is
    scored, and a non-finite logit row raises as in ``_softmax64``.
    """
    EnhanceConfig(alpha=alpha)  # validates alpha
    relations = np.asarray(relations, dtype=np.int64)
    block = np.empty((len(relations), params.num_entities))

    def fill(span):
        lo, hi = span
        h_s, *_ = entity_step(params, np.arange(lo, hi))
        shifted = logits(params, h_s, "relation").astype(np.float64)
        top = shifted.max(axis=1, keepdims=True)
        if not np.all(np.isfinite(top)):
            raise ValueError("cannot rank non-finite scores")
        shifted -= top
        log_probs = shifted[:, relations]
        log_probs -= np.log(np.exp(shifted, out=shifted).sum(axis=1, keepdims=True))
        np.multiply(log_probs.T, alpha, out=block[:, lo:hi])
        return (log_probs < _UNDERFLOW).any(axis=0)

    flags = list(map_chunks(fill, params.num_entities, chunk, workers))
    return block, np.logical_or.reduce(flags)


# Exact ranks need each compared probability to be a normal float64.
# exp(-680) leaves room below it for the division by a row sum (at most N)
# and the enhancing product; exp(-700) is the floor for p(r | e).
_GAP_FLOOR = -680.0
_UNDERFLOW = -700.0


def _plain_certified(raw, top, golds) -> np.ndarray:
    """Rows of float32 logits whose float64 softmax keeps the gold's rank.

    Distinct float32 values near a gold logit g lie at least ~3e-8 |g|
    apart. With |g| > 1e-6 (1 + |top|) and g - top > -680 no float64
    subtract, exp or divide can merge or flip such a gap, and exact ties stay
    ties, so the rank from the logits is the rank from the probabilities.
    Float64 logits have no such gap and are never certified.
    """
    if raw.dtype != np.float32:
        return np.zeros(len(golds), dtype=bool)
    gold = raw[np.arange(len(golds)), golds].astype(np.float64)
    top = top.astype(np.float64)
    return (np.abs(gold) > 1e-6 * (1.0 + np.abs(top))) & (gold - top > _GAP_FLOOR)


def _certified_enhanced_rank(evidence, raw, top: float, gold: int, known) -> int | None:
    """Filtered rank of ``gold`` in ``evidence + raw``, or None unless certified.

    ``evidence + raw`` is the enhanced log-probability row up to one
    constant. The rank holds for the float64 product ``p(r | e) ** alpha *
    p(e)`` when the gold's value is finite, its probability a normal float64,
    and no other entry lies within ``eps`` of it: the rounding of either path
    is far below ``eps``. Exact ties are never certified.
    """
    total = evidence + raw
    at_gold = total[gold]
    if not (np.isfinite(at_gold) and at_gold - top > _GAP_FLOOR + np.log(len(total))):
        return None
    eps = 1e-11 * (1.0 + abs(at_gold) + abs(top))
    above = total > at_gold + eps
    beaten = np.count_nonzero(above)
    if np.count_nonzero(total >= at_gold - eps) != beaten + 1:
        return None
    return 1 + beaten - np.count_nonzero(above[known])


def _exact_ranks(raw, power, golds, lo, hi, objects, *, pessimistic: bool) -> np.ndarray:
    """``filtered_ranks`` of the float64 softmax of ``raw``, times ``power``
    (rows of ``relation_prob_matrix``) unless it is None: the ranks of rows
    no certificate covers."""
    probs = _softmax64(raw)
    if power is not None:
        probs *= power
    return filtered_ranks(probs, golds, lo, hi, objects, pessimistic=pessimistic)


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
    EnhanceConfig(alpha=alpha)  # validates alpha
    p_orig = np.asarray(p_orig, dtype=np.float64)
    if np.any(p_orig < 0):
        raise ValueError("original scores must be non-negative")
    reverse_probs = np.asarray(reverse_probs, dtype=np.float64)
    if np.any(reverse_probs < 0):
        raise ValueError("reverse probabilities must be non-negative")
    return reverse_probs ** alpha * p_orig


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
    owner, cols = _known_answers(golds, lo, hi, objects)
    # every gold is among its row's known answers, so it is never counted
    known_better = np.bincount(owner[better[owner, cols]], minlength=len(golds))
    return 1 + np.count_nonzero(better, axis=1) - known_better


def _known_answers(golds, lo, hi, objects) -> tuple[np.ndarray, np.ndarray]:
    """The row and the entity of every known answer in the spans; raises
    ValueError if some row's gold is not among its known answers."""
    owner, at = _span_items(lo, hi)
    cols = objects[at]
    missing = np.ones(len(golds), dtype=bool)
    missing[owner[cols == golds[owner]]] = False
    if missing.any():
        gold = golds[np.argmax(missing)]
        raise ValueError(f"gold label {gold} missing from the known-answer set")
    return owner, cols


def unfiltered_ranks(block, golds, *, pessimistic: bool = False) -> np.ndarray:
    """``unfiltered_rank`` of every row of a score block, from one compare."""
    better = np.count_nonzero(_beats_gold(block, golds, pessimistic), axis=1)
    return better if pessimistic else 1 + better


def _beats_gold(block, golds, pessimistic: bool) -> np.ndarray:
    gold_scores = block[np.arange(len(golds)), golds][:, None]
    return block >= gold_scores if pessimistic else block > gold_scores


def _queried_triples(dataset: IndexedDataset, split: str) -> np.ndarray:
    """The split's triples, each once: ``train`` holds both orientations, so
    its queries come from ``raw_train``."""
    triples = dataset.split(split)
    return dataset.raw_train if split == "train" else triples


VARIANTS = ("entity_plain", "entity_enhanced", "cascade_plain", "cascade_enhanced")


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

    ``entity_*`` are filtered entity ranks; ``cascade_*`` multiply them by
    the unfiltered relation rank; ``*_enhanced`` rescore with reverse-relation
    evidence. Each chunk of queries is scored once, into logits, and ranked
    only the ways the asked-for variants need (``kinds``): certified rows
    from the logits, the rest from the float64 probabilities (see the module
    docstring). Its ``chunk`` x N logits are dropped before its thread scores
    the next chunk. Enhancing adds the ``(U, N)`` log-evidence block, built
    once; ``log_evidence_block`` rejects a bad alpha there, before any chunk
    is scored. A pass without an enhanced variant never uses alpha.
    """
    variants = list(variants)
    if not variants:
        raise ValueError("no evaluation variant asked for")
    unknown = sorted(set(variants) - set(VARIANTS))
    if unknown:
        raise ValueError(f"unknown evaluation variants: {unknown}")
    kinds = {name.split("_")[1] for name in variants}
    if any(name.startswith("cascade_") for name in variants):
        kinds.add("relation")
    triples = _queried_triples(dataset, split)
    if len(triples) == 0:
        raise ValueError(f"split {split!r} has no triples to evaluate")
    subjects, relations, golds = augment_reverse(triples, dataset.vocab).T
    lo, hi = dataset.answer_spans(subjects, relations)
    objects = dataset.answer_objects
    exact_power = []  # relation_prob_matrix's block, once some enhanced row needs it
    exact_power_lock = threading.Lock()

    def exact_ranks(raw, q, rows, enhanced):
        power = None
        if enhanced:
            with exact_power_lock:
                if not exact_power:
                    exact_power.append(relation_prob_matrix(params, used, alpha))
            power = exact_power[0][evidence_row[q][rows]]
        return _exact_ranks(raw[rows], power, golds[q][rows], lo[q][rows], hi[q][rows],
                            objects, pessimistic=pessimistic)

    def rank_span(span):
        q = slice(*span)
        raw = entity_logits_batch(params, subjects[q], relations[q])
        top = raw.max(axis=1)
        # _softmax64's condition: a NaN or +inf logit, or a row of all -inf
        if not np.all(np.isfinite(top)):
            raise ValueError("cannot rank non-finite scores")
        _known_answers(golds[q], lo[q], hi[q], objects)  # raises on a gold it lacks
        ranks = {}
        if "plain" in kinds:
            ranks["plain"] = filtered_ranks(
                raw, golds[q], lo[q], hi[q], objects, pessimistic=pessimistic
            )
            rows = np.flatnonzero(~_plain_certified(raw, top, golds[q]))
            if rows.size:
                ranks["plain"][rows] = exact_ranks(raw, q, rows, False)
        if "enhanced" in kinds:
            ranks["enhanced"] = np.empty(len(raw), dtype=np.int64)
            rows = []
            for i, (u, gold, a, b) in enumerate(zip(evidence_row[q], golds[q], lo[q], hi[q])):
                rank = None if underflow[u] else _certified_enhanced_rank(
                    evidence[u], raw[i], float(top[i]), gold, objects[a:b]
                )
                if rank is None:
                    rows.append(i)
                else:
                    ranks["enhanced"][i] = rank
            if rows:
                ranks["enhanced"][rows] = exact_ranks(raw, q, np.array(rows), True)
        if "relation" in kinds:
            ranks["relation"] = unfiltered_ranks(
                relation_scores_batch(params, subjects[q]), relations[q], pessimistic=pessimistic
            )
        return ranks

    # made first, so a bad chunk or worker count fails before the block is built
    spans = map_chunks(rank_span, len(subjects), chunk, workers)
    if "enhanced" in kinds:
        used, evidence_row = np.unique(dataset.vocab.reverse_of[relations], return_inverse=True)
        evidence, underflow = log_evidence_block(params, used, alpha, workers=workers)
    parts = list(spans)
    ranks = {kind: np.concatenate([part[kind] for part in parts]) for kind in kinds}
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
    triples = _queried_triples(dataset, split)
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
