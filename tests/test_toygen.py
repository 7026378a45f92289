import pytest
from hypothesis import assume, example, given, strategies as st

from dskg.data import index_dataset
from dskg.toygen import INVERSE_FAMILIES, ToyConfig, generate_toy_kg, write_toy_kg


def held_out_guarded(config):
    """Generate the graph for ``config``, check what the holdout guard
    promises, and return (held, target): every held-out fact's entities and
    relation keep a training occurrence, and no fact is held out together
    with its twin."""
    kg = generate_toy_kg(config)
    inverse_of = {name: twin for pair in INVERSE_FAMILIES for name, twin in (pair, pair[::-1])}
    held = {(t.subject, t.relation, t.object) for t in kg.valid + kg.test}
    train = [(t.subject, t.relation, t.object) for t in kg.train]
    entities = {e for s, _, o in train for e in (s, o)}
    relations = {r for _, r, _ in train}
    for s, r, o in held:
        assert {s, o} <= entities and r in relations
        assert (o, inverse_of[r], s) not in held
    target = round(config.holdout_fraction * (len(train) + len(held)))
    assert len(held) <= target
    return len(held), target


class TestGenerator:
    def test_deterministic(self):
        a = generate_toy_kg(ToyConfig())
        b = generate_toy_kg(ToyConfig())
        assert a.train == b.train and a.valid == b.valid and a.test == b.test

    def test_seed_changes_output(self):
        a = generate_toy_kg(ToyConfig())
        b = generate_toy_kg(ToyConfig(seed=8))
        assert a.train != b.train

    def test_shape_targets(self):
        kg = generate_toy_kg(ToyConfig())
        held = len(kg.valid) + len(kg.test)
        total = len(kg.train) + held
        assert 1800 <= total <= 2100
        assert abs(held - round(0.10 * total)) <= 1
        relations = {t.relation for t in kg.train}
        assert relations == {name for pair in INVERSE_FAMILIES for name in pair}
        entities = {t.subject for t in kg.train} | {t.object for t in kg.train}
        assert len(entities) <= 200

    def test_every_fact_has_its_twin_materialized(self):
        kg = generate_toy_kg(ToyConfig())
        inverse_of = {}
        for fwd, inv in INVERSE_FAMILIES:
            inverse_of[fwd] = inv
            inverse_of[inv] = fwd
        all_facts = {(t.subject, t.relation, t.object) for t in kg.train + kg.valid + kg.test}
        for s, r, o in all_facts:
            assert (o, inverse_of[r], s) in all_facts

    def test_heldout_twins_stay_in_train(self):
        kg = generate_toy_kg(ToyConfig())
        inverse_of = {}
        for fwd, inv in INVERSE_FAMILIES:
            inverse_of[fwd] = inv
            inverse_of[inv] = fwd
        train = {(t.subject, t.relation, t.object) for t in kg.train}
        for t in kg.valid + kg.test:
            assert (t.object, inverse_of[t.relation], t.subject) in train

    def test_train_covers_all_heldout_vocabulary(self):
        kg = generate_toy_kg(ToyConfig())
        ds = index_dataset(kg.train, kg.valid, kg.test)  # raises if not covered
        assert ds.vocab.num_forward_relations == 8

    def test_composition_structure(self):
        kg = generate_toy_kg(ToyConfig())
        facts = {(t.subject, t.relation, t.object) for t in kg.train + kg.valid + kg.test}
        links = {(s, o) for s, r, o in facts if r == "linked_to"}
        feeds = {(s, o) for s, r, o in facts if r == "feeds"}
        reaches = {(s, o) for s, r, o in facts if r == "reaches"}
        composed = {(x, z) for x, y in links for y2, z in feeds if y == y2}
        # every generated chain contributed its composition edge
        assert len(reaches & composed) > 0.8 * len(reaches)

    def test_holdout_fraction_validated(self):
        with pytest.raises(ValueError):
            ToyConfig(holdout_fraction=1.0)

    @pytest.mark.parametrize("counts, message", [
        ({"num_chains": -5}, "num_chains"),
        ({"num_extra_pairs": -3}, "num_extra_pairs"),
        ({"num_chains": 0, "num_extra_pairs": 0}, "both 0"),
        ({"seed": -1}, "seed must be >= 0, got -1"),
    ], ids=["negative_chains", "negative_extra_pairs", "both_zero", "negative_seed"])
    def test_bad_counts_rejected(self, counts, message):
        with pytest.raises(ValueError, match=message):
            ToyConfig(**counts)

    def test_one_count_may_be_zero(self):
        kg = generate_toy_kg(ToyConfig(num_entities=20, num_chains=0, num_extra_pairs=10))
        assert {t.relation for t in kg.train} == {"paired_with", "paired_back"}

    def test_guard_keeps_every_fact_of_a_one_chain_graph(self):
        # Each relation occurs once, so no fact can leave training.
        kg = generate_toy_kg(ToyConfig(num_entities=3, num_chains=1, num_extra_pairs=0,
                                       holdout_fraction=0.9))
        assert (len(kg.train), kg.valid, kg.test) == (6, [], [])

    @pytest.mark.parametrize("config", [
        ToyConfig(6, 4, 3, 0.6, seed=1),
        ToyConfig(5, 2, 2, 0.7, seed=3),
    ], ids=["6_4_3_0.6_seed1", "5_2_2_0.7_seed3"])
    def test_guard_holds_fewer_facts_than_the_target(self, config):
        held, target = held_out_guarded(config)
        assert 0 < held < target

    @given(st.integers(3, 7), st.integers(0, 4), st.integers(0, 4),
           st.floats(0.0, 0.95), st.integers(0, 5))
    @example(5, 3, 2, 0.5, 7)
    def test_guard_holds_on_small_graphs(self, entities, chains, extra, fraction, seed):
        assume(chains or extra)
        held_out_guarded(ToyConfig(entities, chains, extra, fraction, seed))

    def test_write_files(self, tmp_path):
        kg = generate_toy_kg(ToyConfig(num_entities=20, num_chains=10, num_extra_pairs=5))
        write_toy_kg(kg, tmp_path / "toy")
        for name in ("train", "valid", "test"):
            assert (tmp_path / "toy" / f"{name}.txt").exists()
        lines = (tmp_path / "toy" / "train.txt").read_text().strip().split("\n")
        assert len(lines) == len(kg.train)
        assert all(len(line.split("\t")) == 3 for line in lines)
