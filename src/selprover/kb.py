"""Knowledge-base core: symbols, atoms, rules, views, parsing, splits.

Representation choices, fixed here and relied on everywhere else:

* Predicates and constants are interned into dense nonnegative ids, one id
  space per kind. Variables are rule-local and encoded as negative ints
  (variable v is ``-(v + 1)``); they never appear in stored facts.
* All predicates are binary. Input lines with two tokens are unary atoms
  (dropped with a count); anything other than 2 or 3 tokens is malformed.
* A fact is a ground atom; rules carry a head atom and a body tuple. The
  knowledge base stores facts and rules in one item-id space, facts first,
  which is the canonical enumeration order for proof search.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from .config import ConfigError


def mkvar(index: int) -> int:
    """Encode variable number ``index`` (0-based) as a negative symbol code."""
    if index < 0:
        raise ValueError(f"variable index must be >= 0, got {index}")
    return -(index + 1)


def is_var(code: int) -> bool:
    return code < 0


def var_index(code: int) -> int:
    if code >= 0:
        raise ValueError(f"{code} is not a variable code")
    return -code - 1


class ParseError(ValueError):
    """Malformed input line; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class Vocabulary:
    """Interning table for predicate and constant names.

    Ids are dense and contiguous per kind, assigned in first-appearance
    order, which makes vocabulary growth deterministic for a fixed input.
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

    def predicate_id(self, name: str) -> int:
        try:
            return self._pred_ids[name]
        except KeyError:
            raise KeyError(f"unknown predicate name: {name!r}") from None

    def constant_id(self, name: str) -> int:
        try:
            return self._const_ids[name]
        except KeyError:
            raise KeyError(f"unknown constant name: {name!r}") from None

    def predicate_name(self, pid: int) -> str:
        return self._pred_names[pid]

    def constant_name(self, cid: int) -> str:
        return self._const_names[cid]

    def predicate_names(self) -> list[str]:
        return list(self._pred_names)

    def constant_names(self) -> list[str]:
        return list(self._const_names)


@dataclass(frozen=True, slots=True)
class Atom:
    """Binary atom: predicate applied to exactly two argument codes."""

    pred: int
    args: tuple[int, int]

    def __post_init__(self) -> None:
        if len(self.args) != 2:
            raise ValueError(f"atoms are binary, got {len(self.args)} args")
        if self.pred < 0:
            # goal predicates are always concrete symbols; only argument
            # positions may hold variables
            raise ValueError("predicate position cannot be a variable")

    @property
    def is_ground(self) -> bool:
        return self.args[0] >= 0 and self.args[1] >= 0

    def variables(self) -> tuple[int, ...]:
        return tuple(a for a in self.args if is_var(a))

    def as_triple(self) -> tuple[int, int, int]:
        return (self.pred, self.args[0], self.args[1])

    def render(self, vocab: Vocabulary) -> str:
        def arg(a: int) -> str:
            return f"X{var_index(a)}" if is_var(a) else vocab.constant_name(a)

        return f"{vocab.predicate_name(self.pred)}({arg(self.args[0])}, {arg(self.args[1])})"


@dataclass(frozen=True, slots=True)
class Rule:
    """Head atom with a body tuple; facts are the degenerate ground, bodyless case.

    ``slots`` lists predicate ids that are trainable template slots; ``shape``
    tags the structural family a parameterized rule belongs to (used by the
    batched evaluator to pick a scoring plan).
    """

    head: Atom
    body: tuple[Atom, ...] = ()
    slots: tuple[int, ...] = ()
    shape: str | None = None

    @property
    def is_fact(self) -> bool:
        return not self.body and self.head.is_ground

    def variables(self) -> tuple[int, ...]:
        seen: list[int] = []
        for atom in (self.head, *self.body):
            for v in atom.variables():
                if v not in seen:
                    seen.append(v)
        return tuple(seen)

    def render(self, vocab: Vocabulary) -> str:
        head = self.head.render(vocab)
        if not self.body:
            return head
        return f"{head} :- " + ", ".join(a.render(vocab) for a in self.body)


class KnowledgeBase:
    """Immutable store of deduplicated ground facts plus rules.

    Items live in one id space: fact item ids are 0..n_facts-1 in insertion
    order, rule item ids follow.
    """

    def __init__(self, vocab: Vocabulary, facts: Sequence[Atom],
                 rules: Sequence[Rule] = ()) -> None:
        self.vocab = vocab
        seen: set[tuple[int, int, int]] = set()
        kept: list[Atom] = []
        for f in facts:
            if not f.is_ground:
                raise ValueError(f"stored facts must be ground, got {f}")
            t = f.as_triple()
            if t not in seen:
                seen.add(t)
                kept.append(f)
        self.facts: tuple[Atom, ...] = tuple(kept)
        self.rules: tuple[Rule, ...] = tuple(rules)
        self.fact_set: frozenset[tuple[int, int, int]] = frozenset(seen)
        self._fact_id: dict[tuple[int, int, int], int] = {
            f.as_triple(): i for i, f in enumerate(kept)}
        n = len(kept)
        self.fact_pred = np.fromiter((f.pred for f in kept), np.int64, n)
        self.fact_subj = np.fromiter((f.args[0] for f in kept), np.int64, n)
        self.fact_obj = np.fromiter((f.args[1] for f in kept), np.int64, n)

    @property
    def n_facts(self) -> int:
        return len(self.facts)

    @property
    def n_rules(self) -> int:
        return len(self.rules)

    @property
    def n_items(self) -> int:
        return self.n_facts + self.n_rules

    def contains(self, atom: Atom) -> bool:
        return atom.as_triple() in self.fact_set

    def fact_id(self, atom: Atom) -> int:
        """Item id of a stored fact equal to ``atom``, or -1."""
        return self._fact_id.get(atom.as_triple(), -1)

    def full_view(self) -> "KBView":
        return KBView(self, np.arange(self.n_facts, dtype=np.int64),
                      tuple(range(self.n_rules)))

    def item_head_pred(self, item_id: int) -> int:
        if item_id < self.n_facts:
            return int(self.fact_pred[item_id])
        return self.rules[item_id - self.n_facts].head.pred


class KBView:
    """Read-only subset of a knowledge base, with fact columns pre-gathered.

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

    def iter_rules(self) -> Iterator[tuple[int, Rule]]:
        for rid in self.rule_ids:
            yield self.parent.n_facts + rid, self.parent.rules[rid]

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


def serialize_triples(facts: Iterable[Atom], vocab: Vocabulary) -> str:
    lines = []
    for f in facts:
        s, o = f.args
        lines.append(f"{vocab.constant_name(s)}\t{vocab.predicate_name(f.pred)}"
                     f"\t{vocab.constant_name(o)}")
    return "\n".join(lines) + ("\n" if lines else "")


@dataclass(slots=True)
class DatasetSplit:
    train: list[Atom]
    valid: list[Atom]
    test: list[Atom]
    seed: int

    @property
    def all_facts(self) -> list[Atom]:
        return [*self.train, *self.valid, *self.test]


_SPLIT_REDRAWS = 30


def split_dataset(facts: Sequence[Atom], ratios: tuple[float, float, float],
                  seed: int) -> DatasetSplit:
    """Seeded shuffle into train/valid/test with floor sizing, remainder to test.

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
    return DatasetSplit(train=train, valid=valid, test=test, seed=seed)
