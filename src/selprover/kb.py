"""Knowledge-base core: symbols, atoms, rules, views, parsing, splits.

Representation choices, fixed here and relied on everywhere else:

* Predicates and constants are interned into dense nonnegative ids, one id
  space per kind. A negative argument is no constant, so an atom holding
  one is not ground; stored facts and proved goals are ground.
* All predicates are binary. Input lines with two tokens are unary atoms
  (dropped with a count); anything other than 2 or 3 tokens is malformed.
* A fact is a ground atom. A rule is its template shape and its head and
  body predicates, ``Rule(shape, head, body1, body2)``; nothing else about
  a rule is stored. The knowledge base stores facts and rules in one
  item-id space, facts first, which is the canonical enumeration order for
  proof search.
* Predicate ids past the real ones are template slots, never interned, so
  a vocabulary only grows while its dataset loads.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .config import ConfigError


class ParseError(ValueError):
    """Malformed input line; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class Vocabulary:
    """Interning table for predicate and constant names.

    Ids are dense and contiguous per kind, assigned in first-appearance
    order, which makes vocabulary growth deterministic for a fixed input.
    A predicate id past the real predicates is a template slot, named
    ``#k`` for the ``k``-th slot and never interned.
    """

    def __init__(self) -> None:
        self._pred_names: list[str] = []
        self._pred_ids: dict[str, int] = {}
        self._const_names: list[str] = []
        self._const_ids: dict[str, int] = {}

    @property
    def n_predicates(self) -> int:
        return len(self._pred_names)

    @property
    def n_constants(self) -> int:
        return len(self._const_names)

    def intern_predicate(self, name: str) -> int:
        pid = self._pred_ids.get(name)
        if pid is None:
            pid = len(self._pred_names)
            self._pred_names.append(name)
            self._pred_ids[name] = pid
        return pid

    def intern_constant(self, name: str) -> int:
        cid = self._const_ids.get(name)
        if cid is None:
            cid = len(self._const_names)
            self._const_names.append(name)
            self._const_ids[name] = cid
        return cid

    def predicate_name(self, pid: int) -> str:
        if pid >= len(self._pred_names):
            return f"#{pid - len(self._pred_names)}"
        return self._pred_names[pid]

    def constant_name(self, cid: int) -> str:
        return self._const_names[cid]


@dataclass(frozen=True, slots=True)
class Atom:
    """Binary atom: predicate applied to exactly two argument codes."""

    pred: int
    args: tuple[int, int]

    def __post_init__(self) -> None:
        if len(self.args) != 2:
            raise ValueError(f"atoms are binary, got {len(self.args)} args")
        if self.pred < 0:
            raise ValueError(f"predicate ids are nonnegative, got {self.pred}")

    @property
    def is_ground(self) -> bool:
        return self.args[0] >= 0 and self.args[1] >= 0

    def as_triple(self) -> tuple[int, int, int]:
        return (self.pred, self.args[0], self.args[1])


SHAPE_IMPLIES = "implies"
SHAPE_INVERSE = "inverse"
SHAPE_CHAIN = "chain"


class Rule(NamedTuple):
    """A template rule, written as its shape and predicate ids.

    Implies is ``head(X,Y) :- body1(X,Y)``, inverse ``head(X,Y) :-
    body1(Y,X)`` and chain ``head(X,Y) :- body1(X,Z), body2(Z,Y)``. A rule is
    a chain exactly when ``body2 >= 0``. Template slots are the predicate ids
    at or past the vocabulary's real predicates.
    """

    shape: str
    head: int
    body1: int
    body2: int = -1


@functools.lru_cache(maxsize=1)
def known_keys(known: frozenset, n_constants: int) -> np.ndarray:
    """Sorted int keys ``(p * n + s) * n + o`` of the known triples, then a
    sentinel above them all, with ``n = n_constants``.

    Membership of a triple is ``keys[np.searchsorted(keys, key)] == key``.
    Triples with an argument outside ``[0, n)`` can match no candidate and
    are left out, so no key aliases another. Pretraining samples against
    the train set; after it, the e-step sampler and validation ranking both
    use the one all-splits set of a run, so one entry serves the whole EM
    loop and ``eval`` reads its own set once. The array is read-only
    because every call shares it.
    """
    n = n_constants
    keys = np.fromiter(((p * n + s) * n + o for p, s, o in known
                        if 0 <= s < n and 0 <= o < n), np.int64)
    keys = np.append(np.sort(keys), np.iinfo(np.int64).max)
    keys.flags.writeable = False
    return keys


class KnowledgeBase:
    """Immutable store of deduplicated ground facts plus rules.

    Items live in one id space: fact item ids are 0..n_facts-1 in insertion
    order, rule item ids follow. A rule whose shape is none of the three
    templates, whose head or ``body1`` is negative, or whose ``body2``
    disagrees with its shape, raises ``ValueError``.
    """

    def __init__(self, vocab: Vocabulary, facts: Sequence[Atom],
                 rules: Sequence[Rule] = ()) -> None:
        self.vocab = vocab
        self._fact_id: dict[tuple[int, int, int], int] = {}
        kept: list[Atom] = []
        for f in facts:
            if not f.is_ground:
                raise ValueError(f"stored facts must be ground, got {f}")
            t = f.as_triple()
            if t not in self._fact_id:
                self._fact_id[t] = len(kept)
                kept.append(f)
        self.facts: tuple[Atom, ...] = tuple(kept)
        self.rules: tuple[Rule, ...] = tuple(rules)
        n = len(kept)
        self.fact_pred = np.fromiter((f.pred for f in kept), np.int64, n)
        self.fact_subj = np.fromiter((f.args[0] for f in kept), np.int64, n)
        self.fact_obj = np.fromiter((f.args[1] for f in kept), np.int64, n)
        for j, r in enumerate(self.rules):
            if (r.shape not in (SHAPE_IMPLIES, SHAPE_INVERSE, SHAPE_CHAIN)
                    or min(r.head, r.body1) < 0
                    or (r.body2 >= 0) != (r.shape == SHAPE_CHAIN)):
                raise ValueError(f"rule {j} is not template-shaped: {r}")
        self.rule_head_pred = np.fromiter((r.head for r in self.rules),
                                          np.int64, len(self.rules))

    @property
    def n_facts(self) -> int:
        return len(self.facts)

    @property
    def n_rules(self) -> int:
        return len(self.rules)

    @property
    def n_items(self) -> int:
        return self.n_facts + self.n_rules

    def fact_id(self, atom: Atom) -> int:
        """Item id of a stored fact equal to ``atom``, or -1."""
        return self._fact_id.get(atom.as_triple(), -1)

    def full_view(self) -> "KBView":
        return KBView(self, np.arange(self.n_facts, dtype=np.int64),
                      tuple(range(self.n_rules)))

    def item_head_pred(self, item_id: int) -> int:
        if item_id < self.n_facts:
            return int(self.fact_pred[item_id])
        return self.rules[item_id - self.n_facts].head


class KBView:
    """Read-only subset of a knowledge base, with fact columns and rule-head
    predicates pre-gathered.

    ``fact_ids``/``rule_ids`` index into the parent; item ids reported by the
    view are parent item ids (rule item id = n_facts + rule index).
    """

    def __init__(self, parent: KnowledgeBase, fact_ids: np.ndarray,
                 rule_ids: tuple[int, ...]) -> None:
        self.parent = parent
        self.fact_ids = np.asarray(fact_ids, dtype=np.int64)
        self.rule_ids = tuple(rule_ids)
        self.pred = parent.fact_pred[self.fact_ids]
        self.subj = parent.fact_subj[self.fact_ids]
        self.obj = parent.fact_obj[self.fact_ids]
        self.rule_head = parent.rule_head_pred[
            np.asarray(self.rule_ids, dtype=np.int64)]
        self._local_of_parent: dict[int, int] | None = None

    @property
    def n_facts(self) -> int:
        return len(self.fact_ids)

    @property
    def n_rules(self) -> int:
        return len(self.rule_ids)

    @property
    def n_items(self) -> int:
        return self.n_facts + self.n_rules

    def local_fact_index(self, parent_fact_id: int) -> int:
        """Position of a parent fact id inside this view, or -1."""
        if self._local_of_parent is None:
            self._local_of_parent = {int(p): i for i, p in enumerate(self.fact_ids)}
        return self._local_of_parent.get(int(parent_fact_id), -1)

def parse_triples(text: str, vocab: Vocabulary | None = None
                  ) -> tuple[list[Atom], Vocabulary, int]:
    """Parse tab/whitespace-separated triple lines into interned facts.

    Lines hold (subject, predicate, object). Two-token lines are unary atoms
    and are skipped; the skip count is returned. Any other token count is a
    ``ParseError`` carrying the 1-based line number. Duplicate facts keep
    their first occurrence. Returns (facts, vocabulary, unary_skipped).
    """
    if vocab is None:
        vocab = Vocabulary()
    facts: list[Atom] = []
    seen: set[tuple[int, int, int]] = set()
    skipped = 0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) == 2:
            skipped += 1
            continue
        if len(tokens) != 3:
            raise ParseError(line_no, f"expected 3 tokens, got {len(tokens)}: {raw!r}")
        s, p, o = tokens
        atom = Atom(vocab.intern_predicate(p),
                    (vocab.intern_constant(s), vocab.intern_constant(o)))
        t = atom.as_triple()
        if t not in seen:
            seen.add(t)
            facts.append(atom)
    return facts, vocab, skipped


_SPLIT_REDRAWS = 30


def split_dataset(facts: Sequence[Atom], ratios: tuple[float, float, float],
                  seed: int) -> tuple[list[Atom], list[Atom], list[Atom]]:
    """Seeded shuffle into (train, valid, test) with floor sizing, remainder
    to test.

    Redraws the shuffle (bounded) until every predicate seen in valid or test
    also occurs in train, then accepts the last draw regardless; a predicate
    whose facts all land outside train would otherwise be unlearnable.
    """
    total = float(sum(ratios))
    if len(ratios) != 3 or abs(total - 1.0) > 1e-9:
        raise ConfigError(f"split ratios must sum to 1.0, got {ratios}")
    if any(r < 0 for r in ratios):
        raise ConfigError(f"split ratios must be nonnegative, got {ratios}")
    if not facts:
        raise ConfigError("cannot split an empty fact list")
    n = len(facts)
    n_train = int(ratios[0] * n)
    n_valid = int(ratios[1] * n)
    rng = np.random.default_rng(seed)
    order = None
    for _ in range(_SPLIT_REDRAWS):
        order = rng.permutation(n)
        train = [facts[i] for i in order[:n_train]]
        rest = order[n_train:]
        train_preds = {f.pred for f in train}
        if all(facts[i].pred in train_preds for i in rest):
            break
    assert order is not None
    train = [facts[i] for i in order[:n_train]]
    valid = [facts[i] for i in order[n_train:n_train + n_valid]]
    test = [facts[i] for i in order[n_train + n_valid:]]
    return train, valid, test
