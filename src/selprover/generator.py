"""Learned relation selection: GRU generator, storage hierarchy, NNS.

The generator walks predicate space: its hidden state starts as a learned
map of the goal relation's embedding, each step consumes the two most
recently emitted predicates and emits a distribution over real predicates.
A deterministic beam turns that into a per-goal predicate set with scores,
which knowledge selection intersects with the KB.

The relation storage is the generator's training set. It holds predicate
occurrences harvested from proof search, layered by the recursion level the
source knowledge was used at, each layer capacity-bounded (lowest score
evicted first). Nearest-neighbor completion tops the harvest up with the
closest unexplored knowledge items before the storage update, so sparse
early iterations still fill the buffers.

The m-step teacher-forces the generator on sequences read off the storage:
goal relation, then one sampled predicate per layer in depth order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ParameterStore, Tape, Value
from .kb import KnowledgeBase, Vocabulary
from .prover import HighQualityBuffer, pred_matrix
from .pretrain import CONST_EMB, PRED_EMB, SLOT_EMB

def is_generator_param(name: str) -> bool:
    return name.startswith("gen.")


def init_generator(store: ParameterStore, n_real_preds: int, dim: int,
                   rng: np.random.Generator) -> None:
    """Add generator parameters to the store.

    The hidden-state map starts at identity so the walk begins from the
    goal relation's own embedding; gates and projections start small.
    """
    def small(*shape):
        return rng.normal(0.0, 0.1, size=shape)

    store.add("gen.f.W", np.eye(dim))
    store.add("gen.f.b", np.zeros(dim))
    store.add("gen.g.W", small(2 * dim, dim))
    store.add("gen.g.b", np.zeros(dim))
    for gate in ("z", "r", "h"):
        store.add(f"gen.gru.W{gate}", small(dim, dim))
        store.add(f"gen.gru.U{gate}", small(dim, dim))
        store.add(f"gen.gru.b{gate}", np.zeros(dim))
    store.add("gen.out.W", small(dim, n_real_preds))
    store.add("gen.out.b", np.zeros(n_real_preds))


def init_hidden(tape: Tape, goal_rel: int) -> Value:
    """h0 = f(embedding of the goal relation), as a (1, D) row."""
    e = tape.rows(PRED_EMB, [goal_rel])
    return ad.add(ad.matmul(e, tape.leaf("gen.f.W")), tape.leaf("gen.f.b"))


def _next_hidden(tape: Tape, h_prev: Value, r_prev: int, r_cur: int) -> Value:
    pair = ad.concat_cols(tape.rows(PRED_EMB, [r_prev]),
                          tape.rows(PRED_EMB, [r_cur]))
    x = ad.add(ad.matmul(pair, tape.leaf("gen.g.W")), tape.leaf("gen.g.b"))
    z = ad.sigmoid(ad.add(ad.add(ad.matmul(x, tape.leaf("gen.gru.Wz")),
                                 ad.matmul(h_prev, tape.leaf("gen.gru.Uz"))),
                          tape.leaf("gen.gru.bz")))
    r = ad.sigmoid(ad.add(ad.add(ad.matmul(x, tape.leaf("gen.gru.Wr")),
                                 ad.matmul(h_prev, tape.leaf("gen.gru.Ur"))),
                          tape.leaf("gen.gru.br")))
    htil = ad.tanh(ad.add(ad.add(ad.matmul(x, tape.leaf("gen.gru.Wh")),
                                 ad.matmul(ad.mul(r, h_prev),
                                           tape.leaf("gen.gru.Uh"))),
                          tape.leaf("gen.gru.bh")))
    # update gate at 0 keeps the previous hidden state
    return ad.add(ad.sub(h_prev, ad.mul(z, h_prev)), ad.mul(z, htil))


def _output_logits(tape: Tape, h: Value) -> Value:
    return ad.add(ad.matmul(h, tape.leaf("gen.out.W")),
                  tape.leaf("gen.out.b"))


def gru_step(tape: Tape, h_prev: Value, r_prev: int, r_cur: int
             ) -> tuple[Value, Value]:
    """One generator step: (next hidden (1,D), distribution (1,P))."""
    h_next = _next_hidden(tape, h_prev, r_prev, r_cur)
    return h_next, ad.softmax(_output_logits(tape, h_next))


def generate_predicates(goal_rel: int, store: ParameterStore, width: int,
                        depth: int) -> dict[int, float]:
    """Predicates worth proving with for this goal, with generation scores.

    Deterministic beam: per step each beam emits its top `width`
    predicates, the beam set is capped at width^2 by cumulative probability.
    A predicate's score is the best step-local probability it was emitted
    with; the goal relation is always present with score 1.
    """
    if width < 1:
        raise ValueError(f"beam width must be >= 1, got {width}")
    tape = Tape(store)
    h0 = init_hidden(tape, goal_rel)
    out: dict[int, float] = {goal_rel: 1.0}
    # beam item: (cumulative probability, r_prev, r_cur, hidden)
    beams = [(1.0, goal_rel, goal_rel, h0)]
    cap = width * width
    for _ in range(depth):
        grown = []
        for cum, rp, rc, h in beams:
            h2, dist = gru_step(tape, h, rp, rc)
            probs = dist.data[0]
            order = np.argsort(-probs, kind="stable")
            picks = [int(p) for p in order[:width]]
            for p in picks:
                score = float(probs[p])
                if score > out.get(p, 0.0):
                    out[p] = score
                grown.append((cum * score, rc, p, h2))
        grown.sort(key=lambda b: (-b[0], b[2]))
        beams = grown[:cap]
    return out


# ---------------------------------------------------------------------------
# relation storage
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class StorageEntry:
    pred: int
    score: float
    goal_rel: int
    provenance: str  # "unify" or "nns"


class RelationStorage:
    """Layered predicate buffers; layer index equals proof recursion level.

    Duplicates are allowed (a predicate proving many goals should weigh
    more in the m-step). When a layer overflows its capacity the lowest
    score is evicted, earliest entry first on ties.
    """

    def __init__(self, capacities: tuple[int, ...]):
        if not capacities or any(c <= 0 for c in capacities):
            raise ValueError(f"capacities must be positive, got {capacities}")
        self.capacities = tuple(int(c) for c in capacities)
        self.layers: list[list[StorageEntry]] = [[] for _ in capacities]

    @property
    def n_layers(self) -> int:
        return len(self.layers)

    def total(self) -> int:
        return sum(len(layer) for layer in self.layers)

    def add(self, level: int, entry: StorageEntry) -> None:
        if not 1 <= level <= self.n_layers:
            raise ValueError(
                f"level {level} outside storage layers 1..{self.n_layers}")
        layer = self.layers[level - 1]
        layer.append(entry)
        if len(layer) > self.capacities[level - 1]:
            drop = min(range(len(layer)), key=lambda i: (layer[i].score, i))
            layer.pop(drop)

    def entries_for_goal(self, level: int, goal_rel: int) -> list[StorageEntry]:
        return [e for e in self.layers[level - 1] if e.goal_rel == goal_rel]

    def goal_relations(self) -> list[int]:
        seen: list[int] = []
        for layer in self.layers:
            for e in layer:
                if e.goal_rel not in seen:
                    seen.append(e.goal_rel)
        return seen

    def dump(self, vocab: Vocabulary) -> str:
        """Editable text form: layer, predicate, score, goal, provenance."""
        lines = []
        for li, layer in enumerate(self.layers, start=1):
            for e in layer:
                lines.append(f"{li}\t{vocab.predicate_name(e.pred)}"
                             f"\t{e.score:.9f}"
                             f"\t{vocab.predicate_name(e.goal_rel)}"
                             f"\t{e.provenance}")
        return "\n".join(lines) + ("\n" if lines else "")

    @classmethod
    def load(cls, text: str, vocab: Vocabulary,
             capacities: tuple[int, ...]) -> "RelationStorage":
        storage = cls(capacities)
        for parts in parse_storage_lines(text):
            layer, pred_name, score, goal_name, provenance = parts
            storage.add(int(layer), StorageEntry(
                vocab.predicate_id(pred_name), float(score),
                vocab.predicate_id(goal_name), provenance))
        return storage


def parse_storage_lines(text: str) -> list[list[str]]:
    """Raw fields of every entry line in the storage text form.

    Blank lines and ``#`` comments are skipped; each other line must hold
    the five tab-separated fields ``dump`` writes, or ValueError names it.
    """
    rows = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 5:
            raise ValueError(f"storage line {line_no}: expected 5 "
                             f"tab-separated fields, got {len(parts)}")
        rows.append(parts)
    return rows


def update_relation_storage(storage: RelationStorage, hq: HighQualityBuffer,
                            kb: KnowledgeBase) -> None:
    """Append each harvested item's head predicate at its proof level."""
    for item_id, e in hq.items.items():
        storage.add(e.level, StorageEntry(kb.item_head_pred(item_id),
                                          e.score, e.goal_rel, e.origin))


# ---------------------------------------------------------------------------
# nearest-neighbor completion
# ---------------------------------------------------------------------------


def item_embeddings(kb: KnowledgeBase, store: ParameterStore) -> np.ndarray:
    """Mean symbol embedding per knowledge item (facts, then rules)."""
    pe = pred_matrix(store)
    ce = store[CONST_EMB]
    out = np.zeros((kb.n_items, pe.shape[1]))
    if kb.n_facts:
        out[:kb.n_facts] = (pe[kb.fact_pred] + ce[kb.fact_subj]
                            + ce[kb.fact_obj]) / 3.0
    for j, rule in enumerate(kb.rules):
        preds = [rule.head.pred] + [b.pred for b in rule.body]
        consts = [a for atom in (rule.head, *rule.body) for a in atom.args
                  if a >= 0]
        rows = [pe[p] for p in preds] + [ce[c] for c in consts]
        out[kb.n_facts + j] = np.mean(rows, axis=0)
    return out


def nns_complete(hq: HighQualityBuffer, kb: KnowledgeBase,
                 store: ParameterStore, max_size: int) -> list[int]:
    """Grow the buffer to `max_size` with the nearest unexplored items.

    Distance is Euclidean between mean symbol embeddings; each candidate is
    scored against its closest buffer member and added in increasing
    distance order (item id on ties), inheriting that anchor's score, level
    and goal. Returns the added item ids.
    """
    needed = max_size - len(hq)
    if needed <= 0 or not hq.items:
        return []
    emb = item_embeddings(kb, store)
    anchor_ids = list(hq.items.keys())
    candidates = [i for i in range(kb.n_items) if i not in hq]
    if not candidates:
        return []
    anchors = emb[anchor_ids]
    # pairwise differences, not the expanded quadratic form: facts holding
    # the same symbols with swapped arguments tie exactly under this formula
    # (their means differ only in summation order), so the id tie-break
    # stays meaningful
    dist = np.empty(len(candidates))
    nearest = np.empty(len(candidates), dtype=np.int64)
    block = max(1, 4_000_000 // max(1, anchors.size))
    for s in range(0, len(candidates), block):
        cb = emb[candidates[s:s + block]]
        d = np.sqrt(np.sum((cb[:, None, :] - anchors[None, :, :]) ** 2, axis=2))
        dist[s:s + len(cb)] = d.min(axis=1)
        nearest[s:s + len(cb)] = d.argmin(axis=1)
    order = sorted(range(len(candidates)), key=lambda i: (dist[i], candidates[i]))
    added = []
    for i in order[:needed]:
        item_id = candidates[i]
        a = hq.items[anchor_ids[int(nearest[i])]]
        hq.add(item_id, a.score, a.level, a.goal_rel, origin="nns")
        added.append(item_id)
    return added


# ---------------------------------------------------------------------------
# m-step
# ---------------------------------------------------------------------------


def nearest_real_predicate(store: ParameterStore, n_real: int) -> np.ndarray:
    """Map every predicate id to a real one (slots to their closest)."""
    total = n_real + (store[SLOT_EMB].shape[0] if SLOT_EMB in store else 0)
    out = np.arange(total, dtype=np.int64)
    if total > n_real:
        pe = store[PRED_EMB]
        se = store[SLOT_EMB]
        d2 = (np.sum(se ** 2, axis=1)[:, None] + np.sum(pe ** 2, axis=1)[None, :]
              - 2.0 * se @ pe.T)
        out[n_real:] = np.argmin(d2, axis=1)
    return out


def train_generator_step(storage: RelationStorage, goals: list[int],
                         store: ParameterStore, rng: np.random.Generator,
                         samples: int = 4) -> tuple[Tape | None, Value | None]:
    """Teacher-forced cross-entropy over storage sequences for a goal batch.

    Each sampled sequence starts at the goal relation and walks one stored
    predicate per layer (stopping at the first layer with nothing for that
    goal). Targets that are template slots train toward their nearest real
    predicate. Returns (tape, mean loss), or (None, None) when the storage
    offers nothing for these goals.
    """
    n_real = store[PRED_EMB].shape[0]
    to_real = nearest_real_predicate(store, n_real)
    tape = Tape(store)
    losses: list[Value] = []
    for goal in goals:
        for _ in range(samples):
            targets: list[int] = []
            for level in range(1, storage.n_layers + 1):
                pool = storage.entries_for_goal(level, goal)
                if not pool:
                    break
                pick = pool[int(rng.integers(len(pool)))]
                targets.append(int(to_real[pick.pred]))
            if not targets:
                continue
            h = init_hidden(tape, goal)
            prev, cur = goal, goal
            for t in targets:
                h = _next_hidden(tape, h, prev, cur)
                losses.append(
                    ad.cross_entropy_logits(_output_logits(tape, h), [t]))
                prev, cur = cur, t
    if not losses:
        return None, None
    loss = ad.mul(ad.sum_list(losses), 1.0 / len(losses))
    return tape, loss
