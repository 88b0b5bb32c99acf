"""Dataset loading: pre-split directories, single files, synthetic family graphs.

A dataset name resolves in order: a directory ``<data_dir>/<name>`` holding
``train/valid/test`` triple files (canonical splits, one shared vocabulary), a
directory or bare file holding a single triple file (split here by ratio), and
finally a built-in synthetic generator preset. Files are UTF-8 TSV with one
(subject, predicate, object) triple per line.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .kb import Atom, Vocabulary, parse_triples, split_dataset


class DatasetError(ValueError):
    """Dataset could not be located or its files are malformed."""


@dataclass(slots=True)
class Dataset:
    """A named fact collection split into train/valid/test over one vocabulary."""

    name: str
    vocab: Vocabulary
    train: list[Atom]
    valid: list[Atom]
    test: list[Atom]

    @property
    def all_facts(self) -> list[Atom]:
        return [*self.train, *self.valid, *self.test]

    def summary(self) -> str:
        return (f"{self.name}: {len(self.all_facts)} facts "
                f"({len(self.train)}/{len(self.valid)}/{len(self.test)} "
                f"train/valid/test), {self.vocab.n_predicates} predicates, "
                f"{self.vocab.n_constants} constants")


_EXTENSIONS = (".txt", ".tsv")
_PART_NAMES = ("train", "valid", "test")


def _read_facts(path: str, vocab: Vocabulary,
                seen: set[tuple[int, int, int]]) -> list[Atom]:
    # cross-file dedup: a triple repeated in a later split file is dropped
    with open(path, "r", encoding="utf-8") as fh:
        facts, _, _ = parse_triples(fh.read(), vocab)
    out = []
    for f in facts:
        t = f.as_triple()
        if t not in seen:
            seen.add(t)
            out.append(f)
    return out


def _part_file(directory: str, part: str) -> str | None:
    for ext in _EXTENSIONS:
        path = os.path.join(directory, part + ext)
        if os.path.isfile(path):
            return path
    return None


def _single_file(directory: str) -> str | None:
    hits = sorted(n for n in os.listdir(directory)
                  if os.path.splitext(n)[1] in _EXTENSIONS)
    return os.path.join(directory, hits[0]) if len(hits) == 1 else None


def load_dataset(name: str, data_dir: str, seed: int,
                 ratios: tuple[float, float, float] = (0.3, 0.2, 0.5)
                 ) -> Dataset:
    """Resolve ``name`` under ``data_dir`` (falling back to synthetic presets).

    Pre-split directories keep their file boundaries; anything loaded as a
    single file is shuffled into ``ratios`` under ``seed``. The same seed
    always reproduces the same dataset, synthetic ones included.
    """
    directory = os.path.join(data_dir, name)
    if os.path.isdir(directory):
        parts = {p: _part_file(directory, p) for p in _PART_NAMES}
        if all(parts.values()):
            vocab = Vocabulary()
            seen: set[tuple[int, int, int]] = set()
            loaded = {p: _read_facts(parts[p], vocab, seen) for p in _PART_NAMES}
            return Dataset(name, vocab, loaded["train"], loaded["valid"],
                           loaded["test"])
        single = _single_file(directory)
        if single is None:
            raise DatasetError(
                f"directory {directory} needs train/valid/test files "
                f"({'|'.join(_EXTENSIONS)}) or exactly one triple file")
        return _from_single_file(name, single, seed, ratios)
    for ext in _EXTENSIONS:
        path = os.path.join(data_dir, name + ext)
        if os.path.isfile(path):
            return _from_single_file(name, path, seed, ratios)
    if name in SYNTHETIC_PRESETS:
        facts, vocab = synthesize_family(seed=seed, **SYNTHETIC_PRESETS[name])
        return _from_facts(name, facts, vocab, seed, ratios)
    raise DatasetError(
        f"dataset {name!r} not found under {data_dir!r} and not a synthetic "
        f"preset ({', '.join(sorted(SYNTHETIC_PRESETS))})")


def _from_single_file(name: str, path: str, seed: int,
                      ratios: tuple[float, float, float]) -> Dataset:
    with open(path, "r", encoding="utf-8") as fh:
        facts, vocab, _ = parse_triples(fh.read())
    if not facts:
        raise DatasetError(f"no facts in {path}")
    return _from_facts(name, facts, vocab, seed, ratios)


def _from_facts(name: str, facts: list[Atom], vocab: Vocabulary, seed: int,
                ratios: tuple[float, float, float]) -> Dataset:
    return Dataset(name, vocab, *split_dataset(facts, ratios, seed))


# Synthetic family graphs: parent edges form seeded trees, the remaining
# relations are exact inverses, two-hop compositions, and a superset of the
# parent relation, so each rule-template shape has signal to find.
SYNTHETIC_PRESETS: dict[str, dict] = {
    "family": dict(n_families=6, generations=3, max_children=2),
    "family-large": dict(n_families=12, generations=4, max_children=2),
}


def synthesize_family(n_families: int, generations: int, max_children: int,
                      seed: int) -> tuple[list[Atom], Vocabulary]:
    """Build family-tree facts: parentOf trees plus derived relations.

    Each family is one rooted tree; every non-root person has exactly one
    parent. Emits parentOf edges, childOf inverses, grandOf two-hop
    compositions, ancestorOf = parentOf ∪ grandOf, and random cross-family
    friendOf noise (one pair per two people).
    """
    if n_families < 1 or generations < 2 or max_children < 1:
        raise DatasetError(
            f"need n_families >= 1, generations >= 2, max_children >= 1; got "
            f"{n_families}/{generations}/{max_children}")
    rng = np.random.default_rng(seed)
    vocab = Vocabulary()
    p_parent = vocab.intern_predicate("parentOf")
    p_child = vocab.intern_predicate("childOf")
    p_grand = vocab.intern_predicate("grandOf")
    p_anc = vocab.intern_predicate("ancestorOf")
    p_friend = vocab.intern_predicate("friendOf")

    people: list[int] = []

    def person() -> int:
        cid = vocab.intern_constant(f"p{len(people):03d}")
        people.append(cid)
        return cid

    edges: list[tuple[int, int]] = []
    for _ in range(n_families):
        level = [person()]
        for _ in range(generations - 1):
            nxt = []
            for parent in level:
                for _ in range(int(rng.integers(1, max_children + 1))):
                    child = person()
                    edges.append((parent, child))
                    nxt.append(child)
            level = nxt

    children_of: dict[int, list[int]] = {}
    for a, b in edges:
        children_of.setdefault(a, []).append(b)
    grand = [(a, c) for a, b in edges for c in children_of.get(b, ())]

    facts = [Atom(p_parent, e) for e in edges]
    facts += [Atom(p_child, (b, a)) for a, b in edges]
    facts += [Atom(p_grand, g) for g in grand]
    facts += [Atom(p_anc, e) for e in edges]
    facts += [Atom(p_anc, g) for g in grand]

    friends: set[tuple[int, int]] = set()
    target = len(people) // 2
    while len(friends) < target:
        a, b = (int(x) for x in rng.integers(0, len(people), size=2))
        if a != b:
            friends.add((people[a], people[b]))
    facts += [Atom(p_friend, pair) for pair in sorted(friends)]
    return facts, vocab
