"""Output checks, run outside the timed window.

Every expected value is recomputed here from raw scores: the oracles may call
``forward_batch`` and ``logits`` for them, but never the ranking, beam or
top-k code they check. Known-answer sets are rebuilt from the raw label
triples, not from the program's index.

Scores recomputed in other batch shapes can differ from the program's in the
last float32 bit, so a competitor within ``RTOL`` (relative) of the gold
score is a tie of unknown order: a rank must then lie in the band those ties
allow. Without such near-ties the band is one value and the match is exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from dskg.data import REVERSE_MARKER
from dskg.model import forward_batch, logits

RTOL = 1e-5


@dataclass
class Checks:
    """Operations attempted and failed; oracle items count as operations."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def record(self, name: str, attempted: int, failed: int, detail: str = ""):
        attempted, failed = int(attempted), int(failed)
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.notes.append(f"{name}: {failed}/{attempted} failed {detail}".rstrip())


# -- raw scores ---------------------------------------------------------------


def _softmax64(raw):
    scores = np.asarray(raw, dtype=np.float64)
    scores = scores - scores.max(axis=-1, keepdims=True)
    scores = np.exp(scores)
    return scores / scores.sum(axis=-1, keepdims=True)


def entity_probs(params, subjects, relations, chunk: int = 512) -> np.ndarray:
    """p(o | s, r) rows over all entities."""
    rows = []
    for lo in range(0, len(subjects), chunk):
        _, h_r, _ = forward_batch(params, subjects[lo : lo + chunk], relations[lo : lo + chunk])
        rows.append(_softmax64(logits(params, h_r, "entity")))
    return np.concatenate(rows) if rows else np.empty((0, params.num_entities))


def relation_probs(params, subjects, chunk: int = 2048) -> np.ndarray:
    """p(r | s) rows over all relations (the entity-step output)."""
    rows = []
    for lo in range(0, len(subjects), chunk):
        part = np.asarray(subjects[lo : lo + chunk])
        h_s, _, _ = forward_batch(params, part, np.zeros_like(part))
        rows.append(_softmax64(logits(params, h_s, "relation")))
    return np.concatenate(rows) if rows else np.empty((0, params.num_relations))


# -- filtered ranking ---------------------------------------------------------


@dataclass
class Queries:
    """Both directions of a raw split, in the program's order (tails, then heads)."""

    subjects: np.ndarray
    relations: np.ndarray
    golds: np.ndarray
    labels: list[tuple[str, str]]  # (subject label, relation label) per query


def both_directions(raw_split, vocab) -> Queries:
    ent, rel = vocab.entity_ids, vocab.relation_ids
    tails = [(t.subject, t.relation, t.object) for t in raw_split]
    heads = [(t.object, t.relation + REVERSE_MARKER, t.subject) for t in raw_split]
    rows = tails + heads
    return Queries(
        subjects=np.array([ent[s] for s, _, _ in rows], dtype=np.int64),
        relations=np.array([rel[r] for _, r, _ in rows], dtype=np.int64),
        golds=np.array([ent[o] for _, _, o in rows], dtype=np.int64),
        labels=[(s, r) for s, r, _ in rows],
    )


def known_answers(raw_splits, wanted) -> dict:
    """(subject label, relation label) -> answer labels, for the wanted keys only."""
    wanted = set(wanted)
    known = {key: set() for key in wanted}
    for split in raw_splits:
        for t in split:
            key = (t.subject, t.relation)
            if key in wanted:
                known[key].add(t.object)
            key = (t.object, t.relation + REVERSE_MARKER)
            if key in wanted:
                known[key].add(t.subject)
    return known


def rank_band(scores, gold: int, filtered=()) -> tuple[int, int]:
    """Optimistic rank of ``gold`` ignoring ``filtered`` ids: (lowest, highest)."""
    keep = np.ones(len(scores), dtype=bool)
    keep[np.asarray(list(filtered), dtype=np.int64)] = False
    keep[gold] = False
    rivals = scores[keep]
    g = scores[gold]
    return 1 + int((rivals > g * (1 + RTOL)).sum()), 1 + int((rivals > g * (1 - RTOL)).sum())


def in_band(value, band) -> bool:
    return band[0] <= value <= band[1]


def oracle_ranks(params, vocab, raw_splits, queries: Queries, index, *, alpha=None,
                 rel_matrix=None, cascade=False):
    """Rank bands for the queries at ``index``: entity bands and relation bands.

    ``alpha`` turns on reverse-relation enhancement, which needs the full
    (entity, relation) probability matrix ``rel_matrix``.
    """
    index = np.asarray(index)
    subjects, relations, golds = (
        queries.subjects[index], queries.relations[index], queries.golds[index]
    )
    keys = [queries.labels[i] for i in index]
    known = known_answers(raw_splits, keys)
    probs = entity_probs(params, subjects, relations)
    if alpha is not None:
        reverse = np.array(
            [vocab.relation_ids[_reverse_label(vocab.relation_labels[r])] for r in relations]
        )
        probs = rel_matrix[:, reverse].T ** alpha * probs
    rel_probs = relation_probs(params, subjects) if cascade else None
    ent_bands, rel_bands = [], []
    for i, key in enumerate(keys):
        filtered = [vocab.entity_ids[label] for label in known[key]]
        ent_bands.append(rank_band(probs[i], int(golds[i]), filtered))
        if cascade:
            rel_bands.append(rank_band(rel_probs[i], int(relations[i])))
    return ent_bands, rel_bands


def _reverse_label(label: str) -> str:
    if label.endswith(REVERSE_MARKER):
        return label[: -len(REVERSE_MARKER)]
    return label + REVERSE_MARKER


def check_ranks(checks: Checks, name: str, report, bands, index, cascade=False):
    """Compare a report's kept ranks at ``index`` with the oracle bands."""
    ent_bands, rel_bands = bands
    bad = 0
    for j, qi in enumerate(index):
        rank = int(report.ranks[qi])
        if cascade:
            rel_rank = int(report.relation_ranks[qi])
            ent_rank, rest = divmod(rank, rel_rank)
            ok = rest == 0 and in_band(rel_rank, rel_bands[j]) and in_band(ent_rank, ent_bands[j])
        else:
            ok = in_band(rank, ent_bands[j])
        bad += not ok
    checks.record(f"ranks.{name}", len(index), bad)


def mrr_from_bands(bands) -> float:
    """MRR in percent, taking the optimistic end of each band."""
    return 100.0 * float(np.mean([1.0 / lo for lo, _ in bands]))


# -- beam -----------------------------------------------------------------------


def order_violations(ids: np.ndarray, scores: np.ndarray) -> int:
    """Adjacent rows breaking the (score descending, ids ascending) total order."""
    if len(scores) < 2:
        return 0
    step = np.diff(scores)
    diff = np.diff(np.asarray(ids, dtype=np.int64), axis=0)
    nonzero = diff != 0
    first = nonzero.argmax(axis=1)
    lead = diff[np.arange(len(diff)), first]
    ids_ascend = nonzero.any(axis=1) & (lead > 0)
    return int(((step > 0) | ((step == 0) & ~ids_ascend)).sum())


def _keys(ids, widths):
    key = np.zeros(len(ids), dtype=np.int64)
    for col, width in enumerate(widths):
        key = key * width + np.asarray(ids)[:, col]
    return key


def check_stage1(checks: Checks, pairs, rel_matrix, window: int):
    """Stage-1 pairs: order, scores = p(r|s), and top-``window`` by brute force."""
    ids, scores = np.asarray(pairs.triples), np.asarray(pairs.scores)
    checks.record("stage1.order", len(scores), order_violations(ids, scores))
    expected = rel_matrix[ids[:, 0], ids[:, 1]]
    checks.record("stage1.scores", len(scores), (~np.isclose(scores, expected, rtol=RTOL, atol=0)).sum())
    checks.record("stage1.size", 1, len(scores) != min(window, rel_matrix.size))
    cutoff = scores[-1] * (1 + RTOL)
    must = np.argwhere(rel_matrix > cutoff)
    have = np.isin(_keys(must, rel_matrix.shape), _keys(ids, rel_matrix.shape))
    checks.record("stage1.brute_force", len(must), (~have).sum())


def check_stage2(checks: Checks, params, pairs, output, rel_matrix, window: int, chunk: int = 256):
    """Stage-2 triples: order, scores = p(r|s) p(o|s,r), and the top ``window``
    by brute force over the same stage-1 pairs."""
    ids, scores = np.asarray(output.triples), np.asarray(output.scores)
    pair_ids = np.asarray(pairs.triples)
    n_ent, n_rel = params.num_entities, params.num_relations
    checks.record("stage2.order", len(scores), order_violations(ids, scores))
    checks.record("stage2.size", 1, len(scores) != min(window, len(pair_ids) * n_ent))

    pair_row = {pair: i for i, pair in enumerate(map(tuple, pair_ids.tolist()))}
    out_rows = np.array([pair_row.get(pair, -1) for pair in map(tuple, ids[:, :2].tolist())])
    checks.record("stage2.from_pairs", len(scores), (out_rows < 0).sum())

    out_keys = _keys(ids, (n_ent, n_rel, n_ent))
    cutoff = scores[-1] * (1 + RTOL)
    expected = np.full(len(scores), np.nan)
    must = missing = 0
    for lo in range(0, len(pair_ids), chunk):
        part = pair_ids[lo : lo + chunk]
        full = rel_matrix[part[:, 0], part[:, 1]][:, None] * entity_probs(params, part[:, 0], part[:, 1])
        mine = (out_rows >= lo) & (out_rows < lo + len(part))
        expected[mine] = full[out_rows[mine] - lo, ids[mine, 2]]
        rows, cols = np.nonzero(full > cutoff)
        candidates = (part[rows, 0] * n_rel + part[rows, 1]) * n_ent + cols
        must += len(candidates)
        missing += int((~np.isin(candidates, out_keys)).sum())
    checks.record("stage2.scores", len(scores), (~np.isclose(scores, expected, rtol=RTOL, atol=0)).sum())
    checks.record("stage2.brute_force", must, missing)


# -- training -------------------------------------------------------------------


def check_losses(checks: Checks, name: str, losses):
    """Every loss finite, and the last steps' mean below the first steps'."""
    losses = np.asarray(losses, dtype=np.float64)
    checks.record(f"{name}.finite", len(losses), (~np.isfinite(losses)).sum())
    if len(losses) < 2:
        checks.record(f"{name}.decreasing", 1, 1, "(fewer than two losses)")
        return
    k = max(1, min(3, len(losses) // 2))
    checks.record(f"{name}.decreasing", 1, not losses[-k:].mean() < losses[:k].mean())


def check_curve(checks: Checks, output, curve, raw_splits, vocab):
    """Every curve point's counts, from label triples folded to forward form."""
    known = {(t.subject, t.relation, t.object) for split in raw_splits for t in split}
    held_out = {(t.subject, t.relation, t.object) for split in raw_splits[1:] for t in split}
    seen, correct, predictable = set(), [], []
    for s, r, o in np.asarray(output.triples).tolist():
        s, r, o = vocab.entity_labels[s], vocab.relation_labels[r], vocab.entity_labels[o]
        if r.endswith(REVERSE_MARKER):
            s, r, o = o, r[: -len(REVERSE_MARKER)], s
        if (s, r, o) in seen:
            continue
        seen.add((s, r, o))
        correct.append((s, r, o) in known)
        predictable.append((s, r, o) in held_out)
    cum_corr, cum_pred = np.cumsum(correct), np.cumsum(predictable)
    bad = 0
    for point in curve:
        n_corr, n_pred = int(cum_corr[point.n - 1]), int(cum_pred[point.n - 1])
        n_error = point.n - n_corr
        precision = n_pred / (n_pred + n_error) if n_pred + n_error else None
        bad += (point.n_corr, point.n_pred, point.n_error, point.precision) != (
            n_corr, n_pred, n_error, precision)
    checks.record("curve.points", len(curve), bad)
    checks.record("curve.length", 1, not curve or curve[-1].n != len(seen))
