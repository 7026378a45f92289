"""Triple files, frequency-ordered vocabularies, and indexed splits.

Triples live in tab-separated text files, one ``subject<TAB>relation<TAB>object``
per line. Entities and relations get integer ids in descending order of
training frequency (ties broken by first appearance), every forward relation
gets an artificial reverse partner, and the training split is materialized
with both orientations of every triple. The indexed dataset also carries the
sorted int64 keys of every known triple, which serve both filtered ranking
and triple-level precision scoring.

Each lexicon is one ``Counter`` read in ``most_common`` order, whose stable
sort keeps first appearance among equal counts. The triple keys are
deduplicated by one sort; a (subject, relation) pair's known answers are the
one run of keys that starts with its pair key, found by binary search.

The dataset cache, like the checkpoint, is a :func:`write_container` file:
magic, version byte, payload and a CRC-32 trailer, checked whole on load.
"""

from __future__ import annotations

import itertools
import math
import os
import struct
import zlib
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterable, Sequence

import numpy as np

# Suffix appended to a forward relation's label to name its reverse partner.
# parse_triples rejects relation fields ending with it, so the reverse labels
# can never collide with labels read from disk.
REVERSE_MARKER = "^-1"


class TripleParseError(ValueError):
    """Malformed line in a triple file."""

    def __init__(self, message: str, line_number: int, line: str, source: str | None = None):
        where = f"{source}, line {line_number}" if source else f"line {line_number}"
        super().__init__(f"{where}: {message}: {line!r}")
        self.message = message
        self.line_number = line_number
        self.line = line
        self.source = source


@dataclass(frozen=True)
class RawTriple:
    subject: str
    relation: str
    object: str


def parse_triples(lines: Iterable[str]) -> list[RawTriple]:
    """Parse tab-separated triples from an iterable of text lines.

    Blank lines are skipped; anything else must be exactly three non-empty
    tab-separated fields. Raises TripleParseError with the 1-based line
    number on violation.
    """
    triples = []
    for lineno, line in enumerate(lines, start=1):
        stripped = line.rstrip("\r\n")
        if not stripped.strip():
            continue
        fields = stripped.split("\t")
        if len(fields) != 3:
            raise TripleParseError(
                f"expected 3 tab-separated fields, got {len(fields)}", lineno, stripped
            )
        subject, relation, obj = fields
        if not subject or not relation or not obj:
            raise TripleParseError("empty field", lineno, stripped)
        if relation.endswith(REVERSE_MARKER):
            raise TripleParseError(
                f"relation ends with reserved suffix {REVERSE_MARKER!r}", lineno, stripped
            )
        triples.append(RawTriple(subject, relation, obj))
    return triples


def load_triples(path) -> list[RawTriple]:
    with open(path, encoding="utf-8") as handle:
        try:
            return parse_triples(handle)
        except TripleParseError as exc:
            raise TripleParseError(exc.message, exc.line_number, exc.line, str(path)) from None


@dataclass
class Vocabulary:
    """Entity and relation lexicons, id-ordered by descending frequency.

    ``relation_labels`` covers both forward relations and their reverses.
    The labels fix the pairing: ``reverse_of`` is derived from them, the
    involution over relation ids that pairs each forward label ``x`` with
    ``x^-1``.
    """

    entity_labels: list[str]
    entity_freqs: np.ndarray
    relation_labels: list[str]
    relation_freqs: np.ndarray
    entity_ids: dict = field(init=False, repr=False)
    relation_ids: dict = field(init=False, repr=False)
    is_reverse: np.ndarray = field(init=False, repr=False)
    reverse_of: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.entity_ids = {label: i for i, label in enumerate(self.entity_labels)}
        self.relation_ids = {label: i for i, label in enumerate(self.relation_labels)}
        for kind, labels, ids in (("entity", self.entity_labels, self.entity_ids),
                                  ("relation", self.relation_labels, self.relation_ids)):
            if len(ids) != len(labels):
                # ids keeps a repeated label's last id, so its first copy disagrees
                repeated = next(label for i, label in enumerate(labels) if ids[label] != i)
                raise ValueError(f"duplicate {kind} label {repeated!r}")
        if np.any(np.diff(self.entity_freqs) > 0) or np.any(np.diff(self.relation_freqs) > 0):
            raise ValueError("lexicon frequencies must be non-increasing in id order")
        self.is_reverse = np.array(
            [label.endswith(REVERSE_MARKER) for label in self.relation_labels], dtype=bool
        )
        reverse_of = []
        for label, reverse in zip(self.relation_labels, self.is_reverse):
            partner = label[: -len(REVERSE_MARKER)] if reverse else label + REVERSE_MARKER
            if partner not in self.relation_ids:
                raise ValueError(f"relation {label!r} has no partner {partner!r}")
            reverse_of.append(self.relation_ids[partner])
        self.reverse_of = np.array(reverse_of, dtype=np.int32)
        # Only a nested label such as p^-1^-1 breaks the involution.
        nested = np.flatnonzero(self.reverse_of[self.reverse_of] != np.arange(self.num_relations))
        if nested.size:
            raise ValueError(f"reverse map is not an involution at nested label "
                             f"{self.relation_labels[nested[0]]!r}")

    @property
    def num_entities(self) -> int:
        return len(self.entity_labels)

    @property
    def num_relations(self) -> int:
        return len(self.relation_labels)

    @property
    def num_forward_relations(self) -> int:
        return self.num_relations // 2


def build_vocabulary(train: Sequence[RawTriple]) -> Vocabulary:
    """Build lexicons from the raw training triples.

    Entity frequency counts subject and object occurrences in the
    un-augmented training set; each reverse relation inherits its forward
    partner's frequency. Ids run in descending frequency order, ties broken
    by first appearance (reverse relations count as appearing after every
    forward one, in forward-appearance order).
    """
    if not train:
        raise ValueError("cannot build a vocabulary from an empty training set")
    entity_freq = Counter(label for t in train for label in (t.subject, t.object))
    relation_freq = Counter(t.relation for t in train)
    for label in relation_freq:
        if label.endswith(REVERSE_MARKER):
            raise ValueError(f"relation ends with reserved suffix {REVERSE_MARKER!r}: {label!r}")
    relation_freq.update({label + REVERSE_MARKER: n for label, n in relation_freq.items()})
    # most_common sorts stably, so equal counts keep first-appearance order.
    entity_labels, entity_freqs = zip(*entity_freq.most_common())
    relation_labels, relation_freqs = zip(*relation_freq.most_common())
    return Vocabulary(
        entity_labels=list(entity_labels),
        entity_freqs=np.array(entity_freqs, dtype=np.int64),
        relation_labels=list(relation_labels),
        relation_freqs=np.array(relation_freqs, dtype=np.int64),
    )


def index_triples(triples: Sequence[RawTriple], vocab: Vocabulary) -> np.ndarray:
    """Map label triples to an (n, 3) int32 id array; unknown labels raise."""
    entity_ids, relation_ids = vocab.entity_ids, vocab.relation_ids
    try:
        ids = [i for t in triples
               for i in (entity_ids[t.subject], relation_ids[t.relation], entity_ids[t.object])]
    except KeyError as exc:
        raise ValueError(f"label not in vocabulary: {exc.args[0]!r}") from None
    return np.array(ids, dtype=np.int32).reshape(-1, 3)


def augment_reverse(triples: np.ndarray, vocab: Vocabulary) -> np.ndarray:
    """Append the reverse orientation of every triple: originals first."""
    triples = np.asarray(triples, dtype=np.int32).reshape(-1, 3)
    _check_bounds(triples, vocab)
    reversed_part = np.column_stack(
        [triples[:, 2], vocab.reverse_of[triples[:, 1]], triples[:, 0]]
    ).astype(np.int32)
    return np.concatenate([triples, reversed_part], axis=0)


def _check_bounds(triples: np.ndarray, vocab: Vocabulary):
    if len(triples) == 0:
        return
    if triples[:, [0, 2]].min() < 0 or triples[:, [0, 2]].max() >= vocab.num_entities:
        raise ValueError("entity id out of vocabulary bounds")
    if triples[:, 1].min() < 0 or triples[:, 1].max() >= vocab.num_relations:
        raise ValueError("relation id out of vocabulary bounds")


def _encode_pairs(subjects, relations, num_relations: int) -> np.ndarray:
    return np.asarray(subjects, dtype=np.int64) * num_relations + np.asarray(relations)


def _encode_triples(triples: np.ndarray, num_relations: int, num_entities: int) -> np.ndarray:
    t = np.asarray(triples, dtype=np.int64)
    return (t[:, 0] * num_relations + t[:, 1]) * num_entities + t[:, 2]


def _sorted_unique(keys: np.ndarray) -> np.ndarray:
    """Sorted distinct values of non-negative int64 keys, by one sort.

    ``np.unique`` gives the same array, but from NumPy 2.3 on it hashes
    int64 input: ~0.48 s for 640k keys against ~10 ms for this (NumPy 2.4,
    one core of a 2-vCPU machine).
    """
    keys = np.sort(keys)
    return keys[np.diff(keys, prepend=-1) != 0]


def _span_items(lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """Each item of the spans ``[lo[i], hi[i])`` laid end to end: its ``i``, and its index."""
    owner = np.repeat(np.arange(len(lo)), hi - lo)
    return owner, np.arange(len(owner)) + np.repeat(hi - np.cumsum(hi - lo), hi - lo)


def check_key_range(num_entities: int, num_relations: int):
    """Raise ValueError unless every ``_encode_triples`` key fits in int64.

    The largest key is N * R * N - 1, for N entities and R relations.
    """
    largest = int(num_entities) * int(num_relations) * int(num_entities) - 1
    if largest > np.iinfo(np.int64).max:
        raise ValueError(
            f"{num_entities} entities x {num_relations} relations: "
            "triple keys do not fit in int64"
        )


@dataclass
class IndexedDataset:
    """Integer-encoded splits plus the ranking/membership indexes.

    ``train`` holds both orientations of ``raw_train`` (originals then
    reverses), and ``raw_train`` is then its first half; valid and test stay
    forward-only and are queried in both directions at evaluation time.
    Instances are immutable after construction and safe to share.
    """

    vocab: Vocabulary
    raw_train: np.ndarray
    valid: np.ndarray
    test: np.ndarray
    train: np.ndarray = field(init=False, repr=False)
    correct_keys: np.ndarray = field(init=False, repr=False)
    predict_keys: np.ndarray = field(init=False, repr=False)
    answer_objects: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        vocab = self.vocab
        self.train = augment_reverse(self.raw_train, vocab)
        self.raw_train = self.train[: len(self.train) // 2]
        for split in (self.valid, self.test):
            _check_bounds(split, vocab)
        for name, split in (("train", self.raw_train), ("valid", self.valid), ("test", self.test)):
            reverse = split[vocab.is_reverse[split[:, 1]], 1]
            if reverse.size:
                raise ValueError(f"{name} split holds reverse relation "
                                 f"{vocab.relation_labels[reverse[0]]!r}")
        self.predict_keys = _sorted_unique(_encode_triples(
            augment_reverse(np.concatenate([self.valid, self.test]), vocab),
            vocab.num_relations, vocab.num_entities,
        ))
        self.correct_keys = _sorted_unique(np.concatenate([
            _encode_triples(self.train, vocab.num_relations, vocab.num_entities),
            self.predict_keys,
        ]))
        # The object of each key in correct_keys, for gathers over answer_spans.
        self.answer_objects = (self.correct_keys % vocab.num_entities).astype(np.int32)
        self.answer_objects.flags.writeable = False

    def split(self, name: str) -> np.ndarray:
        try:
            return {"train": self.train, "valid": self.valid, "test": self.test}[name]
        except KeyError:
            raise ValueError(f"unknown split {name!r}") from None

    def known_answers(self, subject: int, relation: int) -> np.ndarray:
        """All objects o with (subject, relation, o) in any split, ascending; may be empty."""
        (lo,), (hi,) = self.answer_spans([subject], [relation])
        return self.answer_objects[lo:hi].copy()

    def answer_spans(self, subjects, relations) -> tuple[np.ndarray, np.ndarray]:
        """``(lo, hi)`` per (subject, relation) query: its known answers are
        ``answer_objects[lo[i]:hi[i]]``, distinct and ascending (an empty span
        when the pair has none)."""
        n = self.vocab.num_entities
        # Pair key p owns the triple keys p * n .. p * n + n - 1.
        first = _encode_pairs(subjects, relations, self.vocab.num_relations) * n
        return np.searchsorted(self.correct_keys, first), np.searchsorted(self.correct_keys, first + n)


def index_dataset(
    train: Sequence[RawTriple],
    valid: Sequence[RawTriple] = (),
    test: Sequence[RawTriple] = (),
    vocab: Vocabulary | None = None,
) -> IndexedDataset:
    vocab = vocab or build_vocabulary(train)
    return IndexedDataset(
        vocab=vocab,
        raw_train=index_triples(train, vocab),
        valid=index_triples(valid, vocab),
        test=index_triples(test, vocab),
    )


def batch_iterator(triples: np.ndarray, batch_size: int, seed):
    """Yield one epoch of shuffled batches; the last batch may be short."""
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    triples = np.asarray(triples)
    perm = np.random.default_rng(seed).permutation(len(triples))
    for start in range(0, len(triples), batch_size):
        yield triples[perm[start : start + batch_size]]


@dataclass(frozen=True)
class InverseAuditRow:
    train_relation: int
    test_relation: int
    overlap: int
    exposed_fraction: float


def audit_inverse_pairs(dataset: IndexedDataset) -> list[InverseAuditRow]:
    """Swap-overlap between forward relations of train and test.

    For each ordered pair (r1, r2) counts test triples (o, r2, s) whose
    swapped pair (s, r1, o) is a training triple, and the fraction of r2's
    test triples so exposed. Pairs with zero overlap are omitted. Training
    keys sort by (s, o, r), so a pair's relations are one binary-searched span.
    """
    n, r = dataset.vocab.num_entities, dataset.vocab.num_relations
    train, test = dataset.raw_train.astype(np.int64), dataset.test.astype(np.int64)
    keys = np.sort((train[:, 0] * n + train[:, 2]) * r + train[:, 1])
    swapped = (test[:, 2] * n + test[:, 0]) * r
    owner, at = _span_items(np.searchsorted(keys, swapped), np.searchsorted(keys, swapped + r))
    pairs, overlaps = np.unique(keys[at] % r * r + test[owner, 1], return_counts=True)
    totals = np.bincount(test[:, 1], minlength=r).tolist()
    rows = [
        InverseAuditRow(pair // r, pair % r, k, k / totals[pair % r])
        for pair, k in zip(pairs.tolist(), overlaps.tolist())
    ]
    rows.sort(key=lambda row: (-row.exposed_fraction, -row.overlap, row.train_relation, row.test_relation))
    return rows


def write_inverse_audit(rows: list[InverseAuditRow], vocab: Vocabulary, handle: IO[str]):
    for row in rows:
        handle.write(
            f"{vocab.relation_labels[row.train_relation]}\t"
            f"{vocab.relation_labels[row.test_relation]}\t"
            f"{row.overlap}\t{row.exposed_fraction:.6f}\n"
        )


def dataset_stats(dataset: IndexedDataset) -> dict:
    return {
        "entities": dataset.vocab.num_entities,
        "relations": dataset.vocab.num_forward_relations,
        "relations_with_reverse": dataset.vocab.num_relations,
        "train": len(dataset.raw_train),
        "valid": len(dataset.valid),
        "test": len(dataset.test),
        "train_sequences": len(dataset.train),
    }


@contextmanager
def atomic_write(path):
    """Open a temporary file next to ``path`` for binary writing, and make it
    ``path`` only once the ``with`` block completes. A write that fails
    part-way removes the temporary and leaves any previous ``path`` intact."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as buf:
            yield buf
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_container(path, magic: bytes, version: int, parts: Iterable):
    """Write a container file through :func:`atomic_write`: ``magic``, the
    ``version`` byte, the bytes of each part (bytes or a C-contiguous array)
    in order, then a little-endian CRC-32 of everything before it."""
    with atomic_write(path) as buf:
        crc = 0
        for part in itertools.chain((magic, bytes([version])), parts):
            crc = zlib.crc32(part, crc)
            buf.write(part)
        buf.write(crc.to_bytes(4, "little"))


class ContainerReader:
    """A container file's payload (see :func:`write_container`), handed out
    front to back in bounds-checked slices. The file is read once; its magic,
    then version, then CRC are checked before any part is parsed. Every
    failure is a ValueError naming the file and its ``kind``."""

    def __init__(self, path, magic: bytes, version: int, kind: str):
        self.path, self.kind = path, kind
        with open(path, "rb") as handle:
            blob = bytearray(os.fstat(handle.fileno()).st_size)
            view = memoryview(blob)[: handle.readinto(blob)]
        head = bytes(view[: len(magic)])
        if head != magic[: len(view)]:
            raise ValueError(f"{path}: not a {kind} (bad magic {head!r})")
        if len(view) < len(magic) + 1 + 4:
            raise ValueError(f"{path}: truncated {kind}")
        if view[len(magic)] != version:
            raise ValueError(f"{path}: unsupported {kind} version {view[len(magic)]}")
        if zlib.crc32(view[:-4]) != int.from_bytes(view[-4:], "little"):
            raise ValueError(f"{path}: {kind} checksum mismatch")
        self._payload = view[len(magic) + 1 : -4]
        self._at = 0

    def take(self, size: int) -> memoryview:
        end = self._at + size
        if end > len(self._payload):
            raise ValueError(f"{self.path}: truncated {self.kind}")
        part, self._at = self._payload[self._at : end], end
        return part

    def unpack(self, layout: struct.Struct) -> tuple:
        return layout.unpack(self.take(layout.size))

    def array(self, dtype: str, shape: tuple) -> np.ndarray:
        """The next ``shape`` items of ``dtype``: a writable view, not a copy."""
        size = math.prod(shape) * np.dtype(dtype).itemsize
        return np.frombuffer(self.take(size), dtype=dtype).reshape(shape)

    def finish(self):
        """Raise unless every byte of the payload has been taken."""
        if self._at != len(self._payload):
            raise ValueError(f"{self.path}: trailing bytes after the {self.kind}'s last field")


CACHE_MAGIC = b"DSKGDATA"
CACHE_VERSION = 2
# Entities, relations (with reverses), and the train, valid and test triple counts.
_CACHE_HEADER = struct.Struct("<5I")
_LABEL_LENGTH = struct.Struct("<I")


def _label_bytes(labels: list[str]) -> bytes:
    return b"".join(_LABEL_LENGTH.pack(len(raw)) + raw for raw in map(str.encode, labels))


def save_dataset(dataset: IndexedDataset, path):
    """Write a dataset cache atomically: a container holding the counts, each
    lexicon's labels (length-prefixed UTF-8) and frequencies, and the raw splits."""
    vocab = dataset.vocab
    splits = (dataset.raw_train, dataset.valid, dataset.test)
    write_container(path, CACHE_MAGIC, CACHE_VERSION, [
        _CACHE_HEADER.pack(vocab.num_entities, vocab.num_relations, *map(len, splits)),
        _label_bytes(vocab.entity_labels), vocab.entity_freqs.astype("<u8"),
        _label_bytes(vocab.relation_labels), vocab.relation_freqs.astype("<u8"),
        *(split.astype("<u4") for split in splits),
    ])


def load_dataset(path) -> IndexedDataset:
    reader = ContainerReader(path, CACHE_MAGIC, CACHE_VERSION, "dataset cache")
    num_entities, num_relations, *split_sizes = reader.unpack(_CACHE_HEADER)
    lexicons = []
    for count in (num_entities, num_relations):
        labels = [str(reader.take(*reader.unpack(_LABEL_LENGTH)), "utf-8") for _ in range(count)]
        lexicons += [labels, reader.array("<u8", (count,)).astype(np.int64)]
    splits = [reader.array("<u4", (size, 3)).astype(np.int32) for size in split_sizes]
    reader.finish()
    return IndexedDataset(Vocabulary(*lexicons), *splits)
