import numpy as np

from perfbench.kg import FB15K237, KGShape, generate_kg

SMALL = KGShape(entities=300, relations=12, train=3000, valid=200, test=250)


def _all(kg):
    return np.concatenate([kg.train, kg.valid, kg.test])


def test_same_seed_same_triples():
    a, b = generate_kg(3, SMALL), generate_kg(3, SMALL)
    for split in ("train", "valid", "test"):
        assert np.array_equal(getattr(a, split), getattr(b, split))
    assert a.raw("test") == b.raw("test")


def test_other_seed_other_triples():
    assert not np.array_equal(generate_kg(3, SMALL).train, generate_kg(4, SMALL).train)


def test_fb15k237_counts_are_exact_and_distinct():
    kg = generate_kg(0)
    assert (len(kg.train), len(kg.valid), len(kg.test)) == (272115, 17535, 20466)
    triples = _all(kg).astype(np.int64)
    keys = (triples[:, 0] * FB15K237.relations + triples[:, 1]) * FB15K237.entities + triples[:, 2]
    assert len(np.unique(keys)) == FB15K237.total
    assert triples[:, [0, 2]].max() < FB15K237.entities
    assert triples[:, 1].max() < FB15K237.relations


def test_held_out_labels_occur_in_train():
    kg = generate_kg(1, SMALL)
    train_entities = set(kg.train[:, [0, 2]].ravel().tolist())
    train_relations = set(kg.train[:, 1].tolist())
    assert len(train_entities) == SMALL.entities
    assert len(train_relations) == SMALL.relations
    for split in (kg.valid, kg.test):
        assert set(split[:, [0, 2]].ravel().tolist()) <= train_entities
        assert set(split[:, 1].tolist()) <= train_relations


def test_degrees_are_skewed():
    kg = generate_kg(2)
    triples = _all(kg)
    degree = np.bincount(triples[:, [0, 2]].ravel(), minlength=FB15K237.entities)
    relation_count = np.bincount(triples[:, 1], minlength=FB15K237.relations)
    assert degree.max() > 30 * degree.mean()
    assert relation_count.max() > 5 * relation_count.mean()
    assert degree.min() >= 1
