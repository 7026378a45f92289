"""Deterministic synthetic knowledge graphs for desk-scale verification.

The generated graph carries four relation families, each an exact inverse
pair: two random link families, one compositional family (``reaches`` holds
exactly where a ``linked_to`` edge chains into a ``feeds`` edge), and one
extra random family. Both members of every inverse twin are materialized, and
the holdout is chosen so that each held-out triple's twin stays in training
and every entity and relation keeps at least one training occurrence. Every
held-out fact is therefore recoverable from an inverse (or compositional)
pattern visible in training.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .data import RawTriple

INVERSE_FAMILIES = (
    ("linked_to", "linked_from"),
    ("feeds", "fed_by"),
    ("reaches", "reached_by"),
    ("paired_with", "paired_back"),
)


@dataclass
class ToyConfig:
    num_entities: int = 200
    num_chains: int = 250
    num_extra_pairs: int = 250
    holdout_fraction: float = 0.10
    seed: int = 7

    def __post_init__(self):
        if self.num_entities < 3:
            raise ValueError("need at least 3 entities")
        if not 0.0 <= self.holdout_fraction < 1.0:
            raise ValueError("holdout_fraction must be in [0, 1)")
        if self.num_chains < 0:
            raise ValueError(f"num_chains (--chains) must be >= 0, got {self.num_chains}")
        if self.num_extra_pairs < 0:
            raise ValueError(
                f"num_extra_pairs (--extra-pairs) must be >= 0, got {self.num_extra_pairs}"
            )
        if self.num_chains == 0 and self.num_extra_pairs == 0:
            raise ValueError("num_chains (--chains) and num_extra_pairs (--extra-pairs) "
                             "are both 0, so the graph would be empty")


@dataclass
class ToyKG:
    train: list[RawTriple]
    valid: list[RawTriple]
    test: list[RawTriple]
    config: ToyConfig = field(repr=False, default_factory=ToyConfig)

    @property
    def total(self) -> int:
        return len(self.train) + len(self.valid) + len(self.test)


def _entity_label(index: int, width: int) -> str:
    return f"e{index:0{width}d}"


def generate_toy_kg(config: ToyConfig = ToyConfig()) -> ToyKG:
    rng = np.random.default_rng(config.seed)
    width = len(str(config.num_entities - 1))

    facts: dict[tuple[str, str, str], None] = {}
    twin: dict[tuple, tuple] = {}

    def add_pair(s: str, forward: str, o: str, inverse: str):
        a = (s, forward, o)
        b = (o, inverse, s)
        if a in facts or b in facts:
            return
        facts[a] = None
        facts[b] = None
        twin[a] = b
        twin[b] = a

    for _ in range(config.num_chains):
        x, y, z = (
            _entity_label(i, width)
            for i in rng.choice(config.num_entities, size=3, replace=False)
        )
        add_pair(x, "linked_to", y, "linked_from")
        add_pair(y, "feeds", z, "fed_by")
        add_pair(x, "reaches", z, "reached_by")
    for _ in range(config.num_extra_pairs):
        a, b = (
            _entity_label(i, width)
            for i in rng.choice(config.num_entities, size=2, replace=False)
        )
        add_pair(a, "paired_with", b, "paired_back")

    ordered = list(facts)
    target = round(config.holdout_fraction * len(ordered))
    entity_left = Counter()
    relation_left = Counter()
    for s, r, o in ordered:
        entity_left[s] += 1
        entity_left[o] += 1
        relation_left[r] += 1

    held: list[tuple] = []
    held_set: set = set()
    for idx in rng.permutation(len(ordered)):
        if len(held) == target:
            break
        fact = ordered[idx]
        s, r, o = fact
        if twin[fact] in held_set:
            continue
        if entity_left[s] <= 1 or entity_left[o] <= 1 or relation_left[r] <= 1:
            continue
        held.append(fact)
        held_set.add(fact)
        entity_left[s] -= 1
        entity_left[o] -= 1
        relation_left[r] -= 1

    train = [RawTriple(*f) for f in ordered if f not in held_set]
    valid = [RawTriple(*f) for f in held[0::2]]
    test = [RawTriple(*f) for f in held[1::2]]
    return ToyKG(train=train, valid=valid, test=test, config=config)


def write_toy_kg(kg: ToyKG, directory):
    from pathlib import Path

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for name, triples in (("train", kg.train), ("valid", kg.valid), ("test", kg.test)):
        with open(directory / f"{name}.txt", "w", encoding="utf-8") as handle:
            for t in triples:
                handle.write(f"{t.subject}\t{t.relation}\t{t.object}\n")
