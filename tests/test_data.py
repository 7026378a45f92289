import dataclasses
import io
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from conftest import container_payload, mutation_failures
from dskg import data
from dskg.data import (
    RawTriple,
    TripleParseError,
    augment_reverse,
    batch_iterator,
    build_vocabulary,
    index_dataset,
    parse_triples,
)

labels = st.text(alphabet="abcdefghij0123456789", min_size=1, max_size=4)
raw_triples = st.builds(RawTriple, labels, labels, labels)


small_triples = st.builds(
    RawTriple, st.sampled_from("abcde"), st.sampled_from("pq"), st.sampled_from("abcde")
)


def stored_answers(ds, subject, relation):
    """``np.unique`` of every object stored for (subject, relation), over all
    splits and both orientations: the definition of a known-answer set."""
    rev = ds.vocab.reverse_of
    parts = [ds.train]
    for split in (ds.valid, ds.test):
        parts += [split, np.column_stack([split[:, 2], rev[split[:, 1]], split[:, 0]])]
    stored = np.concatenate(parts).astype(np.int32)
    return np.unique(stored[(stored[:, 0] == subject) & (stored[:, 1] == relation), 2])


def check_answer_index(ds):
    """known_answers and answer_spans agree with ``stored_answers`` on every key."""
    vocab = ds.vocab
    subjects, relations = np.divmod(
        np.arange(vocab.num_entities * vocab.num_relations), vocab.num_relations
    )
    lo, hi = ds.answer_spans(subjects, relations)
    for s, r, a, b in zip(subjects, relations, lo, hi):
        expected = stored_answers(ds, s, r)
        answers = ds.known_answers(int(s), int(r))
        assert answers.dtype == expected.dtype and np.array_equal(answers, expected)
        assert np.array_equal(ds.answer_objects[a:b], expected)
    for name in ("train", "valid", "test"):
        triples = ds.split(name)
        for s, r in ((triples[:, 0], triples[:, 1]),
                     (triples[:, 2], vocab.reverse_of[triples[:, 1]])):
            lo, hi = ds.answer_spans(s, r)
            for i in range(len(s)):
                assert np.array_equal(
                    ds.answer_objects[lo[i]:hi[i]], ds.known_answers(int(s[i]), int(r[i]))
                )


def check_key_sets(ds, train, valid, test):
    """correct_keys and predict_keys are the sorted Python sets of the keys of
    the label triples in every split (and in valid/test), both orientations."""
    vocab = ds.vocab
    entity, relation = vocab.entity_ids, vocab.relation_ids

    def keys(*splits):
        found = set()
        for t in (t for split in splits for t in split):
            s, r, o = entity[t.subject], relation[t.relation], entity[t.object]
            for a, b, c in ((s, r, o), (o, vocab.reverse_of[r], s)):
                found.add((a * vocab.num_relations + b) * vocab.num_entities + c)
        return sorted(found)

    assert ds.correct_keys.dtype == ds.predict_keys.dtype == np.int64
    assert ds.correct_keys.tolist() == keys(train, valid, test)
    assert ds.predict_keys.tolist() == keys(valid, test)


def oracle_audit_inverse_pairs(dataset):
    """``audit_inverse_pairs`` as a Python dict from each ordered training pair
    to its relations, walked one test triple at a time."""
    num_entities = dataset.vocab.num_entities
    pair_index = {}
    for s, r, o in dataset.raw_train:
        pair_index.setdefault(int(s) * num_entities + int(o), []).append(int(r))
    counts = Counter()
    test_totals = Counter(int(r) for r in dataset.test[:, 1])
    for a, r2, b in dataset.test:
        for r1 in pair_index.get(int(b) * num_entities + int(a), ()):
            counts[(r1, int(r2))] += 1
    rows = [
        data.InverseAuditRow(r1, r2, n, n / test_totals[r2])
        for (r1, r2), n in counts.items()
    ]
    rows.sort(key=lambda row: (-row.exposed_fraction, -row.overlap, row.train_relation, row.test_relation))
    return rows


class TestParse:
    def test_basic_line(self):
        out = parse_triples(["USA\tcontains\tNewYorkCity"])
        assert out == [RawTriple("USA", "contains", "NewYorkCity")]

    def test_empty_stream(self):
        assert parse_triples([]) == []

    def test_blank_lines_skipped(self):
        out = parse_triples(["\n", "a\tp\tb\n", "   \n"])
        assert out == [RawTriple("a", "p", "b")]

    def test_two_fields_errors_with_line_number(self):
        with pytest.raises(TripleParseError) as err:
            parse_triples(["a\tp\tb", "a\tb"])
        assert err.value.line_number == 2
        assert err.value.line == "a\tb"

    def test_four_fields_error(self):
        with pytest.raises(TripleParseError):
            parse_triples(["a\tp\tb\tc"])

    def test_empty_field_error(self):
        with pytest.raises(TripleParseError):
            parse_triples(["a\t\tb"])

    def test_reserved_relation_suffix_rejected(self):
        with pytest.raises(TripleParseError):
            parse_triples([f"a\tp{data.REVERSE_MARKER}\tb"])

    def test_file_object(self):
        stream = io.StringIO("x\ty\tz\n")
        assert parse_triples(stream) == [RawTriple("x", "y", "z")]


class TestVocabulary:
    def test_two_triple_example(self):
        vocab = build_vocabulary(parse_triples(["a\tp\tb", "c\tp\tb"]))
        assert vocab.entity_labels == ["b", "a", "c"]
        assert list(vocab.entity_freqs) == [2, 1, 1]
        assert vocab.relation_labels == ["p", "p" + data.REVERSE_MARKER]
        assert vocab.reverse_of[0] == 1 and vocab.reverse_of[1] == 0

    def test_self_loop_counts_twice(self):
        vocab = build_vocabulary([RawTriple("a", "p", "a")])
        assert vocab.entity_freqs[vocab.entity_ids["a"]] == 2

    @pytest.mark.parametrize("kind", ["entity", "relation"])
    def test_increasing_frequencies_rejected(self, kind):
        fields = dict(entity_labels=["a", "b"], entity_freqs=np.array([2, 1]),
                      relation_labels=["p", "p^-1"], relation_freqs=np.array([1, 1]))
        fields[f"{kind}_freqs"] = np.array([1, 2])
        with pytest.raises(ValueError) as err:
            data.Vocabulary(**fields)
        assert str(err.value) == "lexicon frequencies must be non-increasing in id order"

    def test_empty_train_rejected(self):
        with pytest.raises(ValueError):
            build_vocabulary([])

    def test_reverse_inherits_frequency(self):
        vocab = build_vocabulary(parse_triples(["a\tp\tb", "c\tp\td", "a\tq\tb"]))
        p, prev = vocab.relation_ids["p"], vocab.relation_ids["p" + data.REVERSE_MARKER]
        assert vocab.relation_freqs[p] == vocab.relation_freqs[prev] == 2

    @given(st.lists(raw_triples, min_size=1, max_size=40))
    def test_frequency_ordering(self, triples):
        vocab = build_vocabulary(triples)
        assert np.all(np.diff(vocab.entity_freqs) <= 0)
        assert np.all(np.diff(vocab.relation_freqs) <= 0)

    @given(st.lists(raw_triples, min_size=1, max_size=40))
    def test_reverse_involution_no_fixed_points(self, triples):
        vocab = build_vocabulary(triples)
        rev = vocab.reverse_of
        ids = np.arange(len(rev))
        assert np.all(rev[rev] == ids)
        assert np.all(rev != ids)

    @given(st.lists(raw_triples, min_size=1, max_size=40))
    def test_matches_frequency_then_appearance_oracle(self, triples):
        vocab = build_vocabulary(triples)
        entities, relations = {}, {}  # label -> [count, first appearance]
        for i, t in enumerate(triples):
            for label, slot in ((t.subject, 2 * i), (t.object, 2 * i + 1)):
                entities.setdefault(label, [0, slot])[0] += 1
            relations.setdefault(t.relation, [0, i])[0] += 1
        forward = list(relations.items())
        for label, (count, first) in forward:
            relations[label + data.REVERSE_MARKER] = [count, len(triples) + first]
        for lexicon, labels, freqs in ((entities, vocab.entity_labels, vocab.entity_freqs),
                                       (relations, vocab.relation_labels, vocab.relation_freqs)):
            expected = sorted(lexicon, key=lambda label: (-lexicon[label][0], lexicon[label][1]))
            assert labels == expected
            assert freqs.dtype == np.int64
            assert freqs.tolist() == [lexicon[label][0] for label in expected]
        assert vocab.num_forward_relations == len(forward)
        for label, _ in forward:
            fwd = vocab.relation_ids[label]
            rev = vocab.relation_ids[label + data.REVERSE_MARKER]
            assert vocab.reverse_of[fwd] == rev and vocab.reverse_of[rev] == fwd
            assert vocab.relation_freqs[fwd] == vocab.relation_freqs[rev]
            assert vocab.is_reverse[rev] and not vocab.is_reverse[fwd]
        assert vocab.reverse_of.dtype == np.int32

    def test_reserved_relation_suffix_rejected(self):
        with pytest.raises(ValueError, match=r"reserved suffix '\^-1': 'p\^-1'"):
            build_vocabulary([RawTriple("a", "p", "b"), RawTriple("a", "p" + data.REVERSE_MARKER, "b")])

    @pytest.mark.parametrize("kind", ["entity", "relation"])
    def test_duplicate_label_rejected(self, kind):
        vocab = build_vocabulary(parse_triples(["a\tp\tb", "a\tq\tc"]))
        fields = {f.name: getattr(vocab, f.name) for f in dataclasses.fields(vocab) if f.init}
        labels = fields[f"{kind}_labels"] = list(fields[f"{kind}_labels"])
        labels[1] = labels[0]
        with pytest.raises(ValueError, match=f"duplicate {kind} label {labels[0]!r}"):
            data.Vocabulary(**fields)

    @pytest.mark.parametrize("labels, message", [
        pytest.param(["a", "b", "c", "a^-1"], r"relation 'b' has no partner 'b\^-1'",
                     id="forward_pair"),
        pytest.param(["a", "a^-1", "b^-1", "c^-1"], r"relation 'b\^-1' has no partner 'b'",
                     id="reverse_pair"),
        pytest.param(["a", "a^-1", "a^-1^-1"],
                     r"reverse map is not an involution at nested label 'a\^-1\^-1'",
                     id="nested"),
    ])
    def test_reverse_map_must_pair_each_label_with_its_reverse(self, labels, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            data.Vocabulary(
                entity_labels=["x", "y"],
                entity_freqs=np.array([1, 1]),
                relation_labels=labels,
                relation_freqs=np.ones(len(labels), dtype=np.int64),
            )

    @given(st.lists(raw_triples, min_size=1, max_size=30))
    def test_index_roundtrip(self, triples):
        vocab = build_vocabulary(triples)
        ids = data.index_triples(triples, vocab)
        assert ids.dtype == np.int32 and ids.shape == (len(triples), 3)
        labels = [
            RawTriple(vocab.entity_labels[s], vocab.relation_labels[r], vocab.entity_labels[o])
            for s, r, o in ids
        ]
        assert labels == list(triples)

    def test_index_unknown_label_names_it(self):
        vocab = build_vocabulary([RawTriple("a", "p", "b")])
        with pytest.raises(ValueError, match="label not in vocabulary: 'zz'"):
            data.index_triples([RawTriple("a", "p", "b"), RawTriple("a", "zz", "b")], vocab)
        assert data.index_triples([], vocab).shape == (0, 3)


class TestAugment:
    def test_single_triple(self):
        vocab = build_vocabulary([RawTriple("a", "p", "b")])
        ids = data.index_triples([RawTriple("a", "p", "b")], vocab)
        out = augment_reverse(ids, vocab)
        assert out.shape == (2, 3)
        a, b = vocab.entity_ids["a"], vocab.entity_ids["b"]
        p = vocab.relation_ids["p"]
        assert list(out[0]) == [a, p, b]
        assert list(out[1]) == [b, vocab.reverse_of[p], a]

    def test_empty(self):
        vocab = build_vocabulary([RawTriple("a", "p", "b")])
        out = augment_reverse(np.empty((0, 3), dtype=np.int32), vocab)
        assert out.shape == (0, 3)

    @given(st.lists(raw_triples, min_size=1, max_size=25))
    def test_order_and_double_length(self, triples):
        vocab = build_vocabulary(triples)
        ids = data.index_triples(triples, vocab)
        out = augment_reverse(ids, vocab)
        assert len(out) == 2 * len(ids)
        assert np.array_equal(out[: len(ids)], ids)

    @given(st.lists(raw_triples, min_size=1, max_size=25))
    def test_augment_fixed_point_after_dedup(self, triples):
        vocab = build_vocabulary(triples)
        ids = data.index_triples(triples, vocab)
        once = augment_reverse(ids, vocab)
        twice = augment_reverse(once, vocab)
        assert set(map(tuple, once)) == set(map(tuple, twice))

    def test_out_of_bounds_rejected(self):
        vocab = build_vocabulary([RawTriple("a", "p", "b")])
        with pytest.raises(ValueError):
            augment_reverse(np.array([[0, 99, 1]]), vocab)


class TestIndexedDataset:
    def test_known_answers_example(self):
        ds = index_dataset(parse_triples(["a\tp\tb", "a\tp\tc"]))
        a = ds.vocab.entity_ids["a"]
        b = ds.vocab.entity_ids["b"]
        c = ds.vocab.entity_ids["c"]
        p = ds.vocab.relation_ids["p"]
        assert set(ds.known_answers(a, p)) == {b, c}
        assert len(ds.known_answers(b, p)) == 0

    def test_known_answers_cover_all_splits(self, tiny_dataset):
        ds = tiny_dataset
        for split in ("train", "valid", "test"):
            for s, r, o in ds.split(split):
                assert o in ds.known_answers(int(s), int(r))
        # head direction through the reverse relation as well
        for s, r, o in ds.test:
            assert s in ds.known_answers(int(o), ds.vocab.reverse_of[int(r)])

    def test_answer_index_dedups_repeats_and_keeps_empty_keys(self):
        train = parse_triples(["a\tp\tb", "a\tp\tc", "b\tq\tc"])
        valid = parse_triples(["a\tp\tb"])  # repeats a train triple
        test = parse_triples(["b\tq\tc", "c\tp\ta"])  # one repeat, one new
        ds = index_dataset(train, valid, test)
        check_key_sets(ds, train, valid, test)
        ids, rel = ds.vocab.entity_ids, ds.vocab.relation_ids
        answers = ds.known_answers(ids["a"], rel["p"])
        assert answers.dtype == np.int32
        assert answers.tolist() == sorted([ids["b"], ids["c"]])
        empty = ds.known_answers(ids["c"], rel["q"])
        assert empty.dtype == np.int32 and len(empty) == 0
        check_answer_index(ds)

    @given(st.lists(small_triples, min_size=1, max_size=12), st.data())
    def test_answer_index_matches_stored_objects(self, train, draw):
        entities = sorted({t.subject for t in train} | {t.object for t in train})
        relations = sorted({t.relation for t in train})
        eval_triples = st.lists(
            st.one_of(
                st.sampled_from(train),  # the same triple in train and an eval split
                st.builds(RawTriple, st.sampled_from(entities), st.sampled_from(relations),
                          st.sampled_from(entities)),
            ),
            max_size=6,
        )
        valid, test = draw.draw(eval_triples), draw.draw(eval_triples)
        ds = index_dataset(train, valid, test)
        check_key_sets(ds, train, valid, test)
        check_answer_index(ds)

    def test_key_sets_without_eval_splits(self):
        train = parse_triples(["a\tp\tb", "a\tp\tb", "b\tq\ta"])  # one triple twice
        ds = index_dataset(train)
        check_key_sets(ds, train, [], [])
        assert len(ds.predict_keys) == 0
        check_answer_index(ds)

    def test_unknown_split_name_raises(self, tiny_dataset):
        with pytest.raises(ValueError) as err:
            tiny_dataset.split("bogus")
        assert str(err.value) == "unknown split 'bogus'"

    @pytest.mark.parametrize("split", ["valid", "test"])
    @pytest.mark.parametrize("column", [0, 2])
    def test_eval_entity_id_past_the_lexicon_raises(self, tiny_dataset, split, column):
        vocab = tiny_dataset.vocab
        row = np.zeros((1, 3), dtype=np.int32)
        row[0, column] = vocab.num_entities
        splits = {"valid": tiny_dataset.valid, "test": tiny_dataset.test, split: row}
        with pytest.raises(ValueError) as err:
            data.IndexedDataset(vocab, tiny_dataset.raw_train, splits["valid"], splits["test"])
        assert str(err.value) == "entity id out of vocabulary bounds"

    def test_unknown_label_raises(self):
        train = parse_triples(["a\tp\tb"])
        with pytest.raises(ValueError):
            index_dataset(train, valid=[RawTriple("zzz", "p", "b")])

    @pytest.mark.parametrize("split", ["train", "valid", "test"])
    def test_reverse_relation_in_split_rejected(self, split):
        vocab = build_vocabulary([RawTriple("a", "p", "b")])
        splits = {"train": [RawTriple("a", "p", "b")], "valid": [], "test": []}
        splits[split] = [RawTriple("b", "p^-1", "a")]
        with pytest.raises(ValueError, match=rf"^{split} split holds reverse relation 'p\^-1'$"):
            index_dataset(splits["train"], splits["valid"], splits["test"], vocab=vocab)

    def test_train_holds_both_orientations(self, tiny_dataset):
        ds = tiny_dataset
        assert len(ds.train) == 2 * len(ds.raw_train)
        # raw_train is train's first half, not a second copy
        assert ds.raw_train.base is ds.train
        forward = set(map(tuple, ds.raw_train))
        for s, r, o in forward:
            assert (o, ds.vocab.reverse_of[r], s) in set(map(tuple, ds.train))


class TestBatchIterator:
    def test_partition_sizes(self):
        triples = np.arange(15).reshape(5, 3)
        sizes = [len(b) for b in batch_iterator(triples, 2, seed=0)]
        assert sizes == [2, 2, 1]

    def test_same_seed_identical(self):
        triples = np.arange(30).reshape(10, 3)
        a = [b.copy() for b in batch_iterator(triples, 3, seed=42)]
        b = [b.copy() for b in batch_iterator(triples, 3, seed=42)]
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    @given(st.integers(1, 7), st.integers(1, 30), st.integers(0, 10))
    def test_epoch_is_a_permutation(self, batch_size, n, seed):
        triples = np.arange(3 * n).reshape(n, 3)
        batches = list(batch_iterator(triples, batch_size, seed=seed))
        merged = np.concatenate(batches)
        assert Counter(map(tuple, merged)) == Counter(map(tuple, triples))

    def test_zero_batch_size_rejected(self):
        with pytest.raises(ValueError):
            next(batch_iterator(np.zeros((2, 3)), 0, seed=0))


class TestInverseAudit:
    def test_exposed_pair(self, inverse_pair_files):
        ds = index_dataset(
            data.load_triples(inverse_pair_files / "train.txt"),
            data.load_triples(inverse_pair_files / "valid.txt"),
            data.load_triples(inverse_pair_files / "test.txt"),
        )
        rows = data.audit_inverse_pairs(ds)
        by_pair = {
            (ds.vocab.relation_labels[r.train_relation], ds.vocab.relation_labels[r.test_relation]): r
            for r in rows
        }
        row = by_pair[("contains", "containedby")]
        assert row.overlap == 1
        assert row.exposed_fraction == 1.0

    def test_disjoint_relations_no_rows(self):
        ds = index_dataset(
            parse_triples(["a\tp\tb", "c\tq\td"]),
            test=[RawTriple("a", "q", "c")],
        )
        assert data.audit_inverse_pairs(ds) == []

    def test_only_forward_relations_reported(self, inverse_pair_files):
        ds = index_dataset(
            data.load_triples(inverse_pair_files / "train.txt"),
            data.load_triples(inverse_pair_files / "valid.txt"),
            data.load_triples(inverse_pair_files / "test.txt"),
        )
        for row in data.audit_inverse_pairs(ds):
            assert not ds.vocab.is_reverse[row.train_relation]
            assert not ds.vocab.is_reverse[row.test_relation]

    # Repeated training triples, a self-loop, the pair (a, b) under p and q,
    # and p exposing its own swap (r1 == r2); then an empty test split.
    @example(
        [RawTriple("a", "p", "b"), RawTriple("a", "p", "b"), RawTriple("a", "q", "b"),
         RawTriple("c", "p", "c")],
        [RawTriple("b", "p", "a"), RawTriple("c", "q", "c"), RawTriple("a", "p", "c")],
    )
    @example([RawTriple("a", "p", "b"), RawTriple("b", "p", "a")], [])
    @given(st.lists(small_triples, min_size=1, max_size=16),
           st.lists(small_triples, max_size=10))
    def test_rows_match_the_dict_oracle(self, train, test):
        ds = index_dataset(train, test=test, vocab=build_vocabulary(train + test))
        rows = data.audit_inverse_pairs(ds)
        assert rows == oracle_audit_inverse_pairs(ds)
        for row in rows:
            assert [type(value) for value in dataclasses.astuple(row)] == [int, int, int, float]


class TestCache:
    def test_roundtrip(self, tiny_dataset, tmp_path):
        path = tmp_path / "dataset.dskg"
        data.save_dataset(tiny_dataset, path)
        loaded = data.load_dataset(path)
        assert loaded.vocab.entity_labels == tiny_dataset.vocab.entity_labels
        assert loaded.vocab.relation_labels == tiny_dataset.vocab.relation_labels
        assert np.array_equal(loaded.vocab.reverse_of, tiny_dataset.vocab.reverse_of)
        assert np.array_equal(loaded.raw_train, tiny_dataset.raw_train)
        assert np.array_equal(loaded.train, tiny_dataset.train)
        assert np.array_equal(loaded.valid, tiny_dataset.valid)
        assert np.array_equal(loaded.test, tiny_dataset.test)
        assert data.dataset_stats(loaded) == data.dataset_stats(tiny_dataset)

    def test_magic_check(self, tmp_path):
        path = tmp_path / "bogus.bin"
        path.write_bytes(b"NOTADATA" + b"\x00" * 32)
        with pytest.raises(ValueError) as err:
            data.load_dataset(path)
        assert str(err.value) == f"{path}: not a dataset cache (bad magic b'NOTADATA')"

    def test_version_1_cache_is_refused_as_bad_magic(self, tiny_dataset, tmp_path):
        # A DSKGDAT1 cache from before the container: re-run prepare.
        path = tmp_path / "dataset.dskg"
        data.save_dataset(tiny_dataset, path)
        path.write_bytes(b"DSKGDAT1" + path.read_bytes()[9:])
        with pytest.raises(ValueError) as err:
            data.load_dataset(path)
        assert str(err.value) == f"{path}: not a dataset cache (bad magic b'DSKGDAT1')"

    def test_other_version_reports_its_version(self, tiny_dataset, tmp_path):
        path = tmp_path / "dataset.dskg"
        data.save_dataset(tiny_dataset, path)
        blob = bytearray(path.read_bytes())
        blob[len(data.CACHE_MAGIC)] = 3
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError) as err:
            data.load_dataset(path)
        assert str(err.value) == f"{path}: unsupported dataset cache version 3"

    def test_truncated_cache_rejected(self, tiny_dataset, tmp_path):
        path = tmp_path / "dataset.dskg"
        data.save_dataset(tiny_dataset, path)
        path.write_bytes(path.read_bytes()[:-12])  # one test triple short
        with pytest.raises(ValueError) as err:
            data.load_dataset(path)
        assert str(err.value) == f"{path}: dataset cache checksum mismatch"

    def test_every_mutation_is_a_value_error_naming_the_file(self, tiny_dataset, tmp_path):
        path = tmp_path / "dataset.dskg"
        data.save_dataset(tiny_dataset, path)
        assert mutation_failures(path, data.load_dataset) == []

    def test_count_past_the_end_is_truncation(self, tiny_dataset, tmp_path):
        # A count that passes the CRC still must not become a read of that many bytes.
        path = tmp_path / "dataset.dskg"
        data.save_dataset(tiny_dataset, path)
        payload = container_payload(path, data.CACHE_MAGIC)
        payload[8:12] = (2**31).to_bytes(4, "little")  # the header's training-triple count
        data.write_container(path, data.CACHE_MAGIC, data.CACHE_VERSION, [payload])
        with pytest.raises(ValueError) as err:
            data.load_dataset(path)
        assert str(err.value) == f"{path}: truncated dataset cache"

    def test_trailing_bytes_rejected(self, tiny_dataset, tmp_path):
        path = tmp_path / "dataset.dskg"
        data.save_dataset(tiny_dataset, path)
        payload = container_payload(path, data.CACHE_MAGIC) + b"\x00" * 12
        data.write_container(path, data.CACHE_MAGIC, data.CACHE_VERSION, [payload])
        with pytest.raises(ValueError, match="trailing bytes"):
            data.load_dataset(path)

    def test_failed_save_keeps_the_previous_cache(self, tiny_dataset, tmp_path, monkeypatch):
        path = tmp_path / "dataset.dskg"
        data.save_dataset(tiny_dataset, path)
        before = path.read_bytes()
        real = data.write_container

        def fail_at_the_third_part(path, magic, version, parts):
            def parts_then_fail():
                yield from list(parts)[:2]
                raise OSError("disk full")

            real(path, magic, version, parts_then_fail())

        monkeypatch.setattr(data, "write_container", fail_at_the_third_part)
        with pytest.raises(OSError, match="disk full"):
            data.save_dataset(tiny_dataset, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["dataset.dskg"]

    def test_save_is_deterministic(self, tiny_dataset, tmp_path):
        p1, p2 = tmp_path / "one.dskg", tmp_path / "two.dskg"
        data.save_dataset(tiny_dataset, p1)
        data.save_dataset(tiny_dataset, p2)
        assert p1.read_bytes() == p2.read_bytes()
