"""Seeded synthetic knowledge graphs with the shape of FB15k-237.

The real FB15k-237 splits are not shipped with the repository, so the
benchmark generates a graph with the same counts in process: 14,541 entities,
237 forward relations and 272,115 / 17,535 / 20,466 distinct train / valid /
test triples. Degrees are skewed the way real KGs are: relations follow a
power law, subjects follow a global power law over entities, and each
relation draws its objects from its own power law over its own range of
entities (range sizes log-uniform from 16 to all entities), so some
(relation, object) pairs gather hundreds of subjects and give the large
filter sets that filtered ranking has to handle.

Every entity and every relation occurs in the training split (one coverage
triple each is forced into train), so every held-out entity and relation is
known to the vocabulary. The same seed always gives the same triples; only
the triples are handed to the program under test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from dskg.data import RawTriple

RELATION_EXPONENT = 0.7
SUBJECT_EXPONENT = 0.7
OBJECT_EXPONENT_RANGE = (0.3, 0.95)
MIN_RANGE = 16  # smallest number of distinct objects a relation may have


@dataclass(frozen=True)
class KGShape:
    entities: int
    relations: int
    train: int
    valid: int
    test: int

    @property
    def total(self) -> int:
        return self.train + self.valid + self.test


FB15K237 = KGShape(entities=14541, relations=237, train=272115, valid=17535, test=20466)


@dataclass
class SyntheticKG:
    """Integer triples (n, 3) per split, columns (subject, relation, object)."""

    shape: KGShape
    train: np.ndarray
    valid: np.ndarray
    test: np.ndarray

    def raw(self, split: str):
        """Label triples for one split, as the program's loaders would produce."""
        ids = getattr(self, split)
        ent = entity_labels(self.shape.entities)
        rel = relation_labels(self.shape.relations)
        return [RawTriple(ent[s], rel[r], ent[o]) for s, r, o in ids.tolist()]


def entity_labels(count: int) -> list[str]:
    return [f"/m/e{i:05d}" for i in range(count)]


def relation_labels(count: int) -> list[str]:
    return [f"/rel/r{i:03d}" for i in range(count)]


def _power_law_index(rng, size: int, exponent, n) -> np.ndarray:
    """Draws in 0..n-1 with P(i) roughly proportional to (i+1)**-exponent.

    Inverse CDF of the continuous density x**-a on [1, n+1). ``exponent``
    (in (0, 1)) and ``n`` may be scalars or hold one value per draw.
    """
    a = np.broadcast_to(np.asarray(exponent, dtype=np.float64), (size,))
    n = np.broadcast_to(np.asarray(n, dtype=np.int64), (size,))
    one_minus = 1.0 - a
    top = np.power(n + 1.0, one_minus)
    x = np.power(rng.random(size) * (top - 1.0) + 1.0, 1.0 / one_minus)
    return np.minimum(x.astype(np.int64) - 1, n - 1)


def generate_kg(seed: int, shape: KGShape = FB15K237) -> SyntheticKG:
    """Deterministic KG with exactly ``shape``'s split sizes after deduplication."""
    rng = np.random.default_rng([seed, 237])
    n_ent, n_rel = shape.entities, shape.relations
    entity_rank = rng.permutation(n_ent)  # popularity rank -> entity id
    relation_rank = rng.permutation(n_rel)
    object_offset = rng.integers(0, n_ent, size=n_rel)
    object_exponent = rng.uniform(*OBJECT_EXPONENT_RANGE, size=n_rel)
    # Range sizes are log-uniform, so some relations have a handful of
    # possible objects (1-to-many, like gender or country) and others many.
    object_range = np.exp(rng.uniform(np.log(MIN_RANGE), np.log(n_ent), size=n_rel))
    object_range = object_range.astype(np.int64)

    def objects_for(relations):
        idx = _power_law_index(
            rng, len(relations), object_exponent[relations], object_range[relations]
        )
        return entity_rank[(idx + object_offset[relations]) % n_ent]

    def random_relations(size):
        return relation_rank[_power_law_index(rng, size, RELATION_EXPONENT, n_rel)]

    # Coverage: one triple with each entity as subject, one per relation.
    cover_s = np.concatenate([np.arange(n_ent), entity_rank[
        _power_law_index(rng, n_rel, SUBJECT_EXPONENT, n_ent)]])
    cover_r = np.concatenate([random_relations(n_ent), np.arange(n_rel)])
    cover_o = objects_for(cover_r)

    draws = int(shape.total * 1.25)
    rand_r = random_relations(draws)
    rand_s = entity_rank[_power_law_index(rng, draws, SUBJECT_EXPONENT, n_ent)]
    rand_o = objects_for(rand_r)

    triples = np.column_stack([
        np.concatenate([cover_s, rand_s]),
        np.concatenate([cover_r, rand_r]),
        np.concatenate([cover_o, rand_o]),
    ]).astype(np.int64)
    loops = triples[:, 0] == triples[:, 2]
    triples[loops, 2] = (triples[loops, 2] + 1) % n_ent
    keys = (triples[:, 0] * n_rel + triples[:, 1]) * n_ent + triples[:, 2]
    _, first = np.unique(keys, return_index=True)
    unique = triples[np.sort(first)]  # first occurrences, in draw order
    if len(unique) < shape.total:
        raise RuntimeError("too few distinct triples drawn; raise the draw count")
    unique = unique[: shape.total]

    n_cover = n_ent + n_rel
    cover_kept = min(n_cover, int(np.searchsorted(np.sort(first), n_cover)))
    held = cover_kept + rng.permutation(shape.total - cover_kept)[: shape.valid + shape.test]
    is_held = np.zeros(shape.total, dtype=bool)
    is_held[held] = True
    train = unique[~is_held]
    train = train[rng.permutation(len(train))]
    valid = unique[held[: shape.valid]]
    test = unique[held[shape.valid :]]
    kg = SyntheticKG(shape, train.astype(np.int32), valid.astype(np.int32), test.astype(np.int32))
    _check_coverage(kg)
    return kg


def _check_coverage(kg: SyntheticKG):
    train = kg.train
    if len(np.unique(train[:, [0, 2]])) != kg.shape.entities:
        raise RuntimeError("an entity is missing from the training split")
    if len(np.unique(train[:, 1])) != kg.shape.relations:
        raise RuntimeError("a relation is missing from the training split")
