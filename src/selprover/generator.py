"""Learned relation selection: GRU generator, storage hierarchy, NNS.

The generator walks predicate space: its hidden state starts as a learned
map of the goal relation's embedding, each step consumes the two most
recently emitted predicates and emits a distribution over real predicates.
A deterministic beam turns that into a per-goal predicate set with scores,
which knowledge selection intersects with the KB.

The relation storage is the generator's training set. It holds predicate
occurrences harvested from proof search, layered by the recursion level the
source knowledge was used at, each layer capacity-bounded (completion
entries, then the lowest score, evicted first). Nearest-neighbor completion
tops the harvest up with the closest unexplored knowledge items, as many as
the storage has free room below its capacity, before the storage update, so
sparse early iterations still fill the buffers.

The m-step teacher-forces the generator on sequences read off the storage:
goal relation, then one sampled predicate per layer in depth order.

The GRU runs in closed form on stacked rows: the beam advances all of a
depth step's beams in one forward pass, and the m-step pads a goal batch's
sequences to a common length and runs one masked forward pass and its
backpropagation through time by hand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import ParameterStore
from .kb import KnowledgeBase, Vocabulary
from .prover import HighQualityBuffer
from .pretrain import CONST_EMB, PRED_EMB, SLOT_EMB
from .scoring import pred_matrix

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


def _sigmoid(a: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(a))
    return np.where(a >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def init_hidden(store: ParameterStore, goal_rels) -> np.ndarray:
    """h0 = f(embedding of the goal relation), one (D,) row per goal."""
    e = store[PRED_EMB][np.asarray(goal_rels, dtype=np.int64)]
    return e @ store["gen.f.W"] + store["gen.f.b"]


def _cell(store: ParameterStore, h: np.ndarray, r_prev, r_cur):
    """One GRU step on stacked rows: (next hidden, what backprop reads)."""
    emb = store[PRED_EMB]
    pair = np.concatenate([emb[r_prev], emb[r_cur]], axis=1)
    x = pair @ store["gen.g.W"] + store["gen.g.b"]
    z = _sigmoid(x @ store["gen.gru.Wz"] + h @ store["gen.gru.Uz"]
                 + store["gen.gru.bz"])
    r = _sigmoid(x @ store["gen.gru.Wr"] + h @ store["gen.gru.Ur"]
                 + store["gen.gru.br"])
    rh = r * h
    c = np.tanh(x @ store["gen.gru.Wh"] + rh @ store["gen.gru.Uh"]
                + store["gen.gru.bh"])
    # update gate at 0 keeps the previous hidden state
    return h - z * h + z * c, (pair, h, x, z, r, rh, c)


def _logits(store: ParameterStore, h: np.ndarray) -> np.ndarray:
    return h @ store["gen.out.W"] + store["gen.out.b"]


def gru_step(store: ParameterStore, h_prev: np.ndarray, r_prev, r_cur
             ) -> tuple[np.ndarray, np.ndarray]:
    """One generator step on stacked rows: (next hidden (n, D),
    distribution over real predicates (n, P))."""
    h_next, _ = _cell(store, h_prev, r_prev, r_cur)
    logits = _logits(store, h_next)
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return h_next, e / e.sum(axis=1, keepdims=True)


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
    out: dict[int, float] = {goal_rel: 1.0}
    # beams as parallel columns: cumulative probability, r_prev, r_cur, hidden
    cum, r_prev, r_cur = [1.0], [goal_rel], [goal_rel]
    h = init_hidden(store, [goal_rel])
    cap = width * width
    for _ in range(depth):
        h, dist = gru_step(store, h, r_prev, r_cur)
        picks = np.argsort(-dist, axis=1, kind="stable")[:, :width].tolist()
        probs = dist.tolist()
        grown = []
        for b, row in enumerate(picks):
            for p in row:
                score = probs[b][p]
                if score > out.get(p, 0.0):
                    out[p] = score
                grown.append((cum[b] * score, p, b))
        grown.sort(key=lambda g: (-g[0], g[1]))
        grown = grown[:cap]
        parents = [b for _, _, b in grown]
        cum = [c for c, _, _ in grown]
        r_prev = [r_cur[b] for b in parents]
        r_cur = [p for _, p, _ in grown]
        h = h[parents]
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
    more in the m-step). An overflowing layer evicts ``nns`` entries before
    harvested (``unify``) ones, so completion never displaces the harvest;
    within each group the lowest score goes, earliest first on ties.
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
            layer.remove(min(layer, key=lambda e: (e.provenance != "nns",
                                                   e.score)))

    def entries_by_goal(self, level: int) -> dict[int, list[StorageEntry]]:
        """One layer's entries grouped by goal relation, in storage order."""
        groups: dict[int, list[StorageEntry]] = {}
        for e in self.layers[level - 1]:
            groups.setdefault(e.goal_rel, []).append(e)
        return groups

    def goal_relations(self) -> list[int]:
        seen: list[int] = []
        for layer in self.layers:
            for e in layer:
                if e.goal_rel not in seen:
                    seen.append(e.goal_rel)
        return seen

    def dump(self, vocab: Vocabulary) -> str:
        """Text form: layer, predicate, score, goal, provenance.

        ``selprover inspect-storage`` reads it through
        ``parse_storage_lines``.
        """
        lines = []
        for li, layer in enumerate(self.layers, start=1):
            for e in layer:
                lines.append(f"{li}\t{vocab.predicate_name(e.pred)}"
                             f"\t{e.score:.9f}"
                             f"\t{vocab.predicate_name(e.goal_rel)}"
                             f"\t{e.provenance}")
        return "\n".join(lines) + ("\n" if lines else "")


def parse_storage_lines(text: str) -> list[list[str]]:
    """Raw fields of every entry line in the storage text form.

    Blank lines and ``#`` comments are skipped; each other line must hold
    the five tab-separated fields ``dump`` writes, with a positive integer
    layer and a finite score, or ValueError names it.
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
        layer, _, score = parts[:3]
        if not (layer.isdecimal() and int(layer) > 0):
            raise ValueError(f"storage line {line_no}: layer must be a "
                             f"positive integer, got {layer!r}")
        try:
            finite = math.isfinite(float(score))
        except ValueError:
            finite = False
        if not finite:
            raise ValueError(f"storage line {line_no}: score must be a "
                             f"finite number, got {score!r}")
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
    """Mean symbol embedding per knowledge item (facts, then rules).

    A rule holds no constants, so its mean is over its head and body
    predicates.
    """
    pe = pred_matrix(store)
    ce = store[CONST_EMB]
    out = np.zeros((kb.n_items, pe.shape[1]))
    if kb.n_facts:
        out[:kb.n_facts] = (pe[kb.fact_pred] + ce[kb.fact_subj]
                            + ce[kb.fact_obj]) / 3.0
    b1 = np.array([r.body1 for r in kb.rules], dtype=np.int64)
    b2 = np.array([r.body2 for r in kb.rules], dtype=np.int64)
    two = pe[kb.rule_head_pred] + pe[b1]
    out[kb.n_facts:] = np.where((b2 >= 0)[:, None], (two + pe[b2]) / 3.0,
                                two / 2.0)
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


def nearest_real_predicate(store: ParameterStore) -> np.ndarray:
    """Map every predicate id to a real one (slots to their closest)."""
    n_real = store[PRED_EMB].shape[0]
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
                         samples: int = 4
                         ) -> tuple[dict[str, np.ndarray] | None, float | None]:
    """Teacher-forced cross-entropy over storage sequences for a goal batch.

    Each sampled sequence starts at the goal relation and walks one stored
    predicate per layer (stopping at the first layer with nothing for that
    goal). Targets that are template slots train toward their nearest real
    predicate. Returns (gradients of the mean loss, mean loss as a scalar of
    the store's dtype), or (None, None) when the storage offers nothing for
    these goals. The gradients cover the generator's parameters alone, in
    the order ``gen.f``, ``gen.g``, the z, r and h gates (W, U, b each),
    ``gen.out``; ``clip_gradients`` sums its norm in that order.
    """
    to_real = nearest_real_predicate(store)
    layers = [storage.entries_by_goal(level)
              for level in range(1, storage.n_layers + 1)]
    rows: list[list[int]] = []   # goal, goal, then one target per layer
    for goal in goals:
        pools = []
        for by_goal in layers:
            pool = by_goal.get(goal)
            if not pool:
                break
            pools.append(pool)
        if not pools:
            continue
        for _ in range(samples):
            rows.append([goal, goal] + [
                int(to_real[pool[int(rng.integers(len(pool)))].pred])
                for pool in pools])
    if not rows:
        return None, None

    # pad every sequence to the deepest layer by repeating its last id; the
    # mask drops the padded steps from the loss, so nothing flows back
    steps = storage.n_layers
    seq = np.array([r + r[-1:] * (steps + 2 - len(r)) for r in rows],
                   dtype=np.int64)
    n = len(rows)
    mask = (np.arange(steps)[None, :]
            < np.array([len(r) - 2 for r in rows])[:, None]).reshape(-1)
    count = int(mask.sum())

    h = init_hidden(store, seq[:, 0])
    caches, hs = [], []
    for t in range(steps):
        h, cache = _cell(store, h, seq[:, t], seq[:, t + 1])
        caches.append(cache)
        hs.append(h)
    # row i * steps + t is sequence i at step t: the loss's summation order
    hid = np.stack(hs, axis=1).reshape(n * steps, -1)
    logits = _logits(store, hid)
    shifted = logits - logits.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    at = (np.arange(n * steps), seq[:, 2:].reshape(-1))
    loss = np.sum(-logp[at][mask]) * (1.0 / count)

    # backpropagation through time, d(mean loss) per logit row first
    d_logits = np.exp(logp)
    d_logits[at] -= 1.0
    d_logits *= 1.0 / count
    d_logits[~mask] = 0.0
    d_hid = (d_logits @ store["gen.out.W"].T).reshape(n, steps, -1)
    dh = np.zeros_like(h)
    saved = []
    for t in reversed(range(steps)):
        pair, h_prev, x, z, r, rh, c = caches[t]
        dh = dh + d_hid[:, t]
        da_h = dh * z * (1.0 - c * c)
        d_rh = da_h @ store["gen.gru.Uh"].T
        da_r = d_rh * h_prev * r * (1.0 - r)
        da_z = dh * (c - h_prev) * z * (1.0 - z)
        dx = (da_z @ store["gen.gru.Wz"].T + da_r @ store["gen.gru.Wr"].T
              + da_h @ store["gen.gru.Wh"].T)
        dh = (dh * (1.0 - z) + d_rh * r + da_z @ store["gen.gru.Uz"].T
              + da_r @ store["gen.gru.Ur"].T)
        saved.append((pair, h_prev, x, rh, dx, da_z, da_r, da_h))
    pair, h_prev, x, rh, dx, da_z, da_r, da_h = (
        np.concatenate(cols) for cols in zip(*saved))
    grads = {"gen.f.W": store[PRED_EMB][seq[:, 0]].T @ dh,
             "gen.f.b": dh.sum(axis=0),
             "gen.g.W": pair.T @ dx, "gen.g.b": dx.sum(axis=0)}
    for gate, da, h_in in (("z", da_z, h_prev), ("r", da_r, h_prev),
                           ("h", da_h, rh)):
        grads[f"gen.gru.W{gate}"] = x.T @ da
        grads[f"gen.gru.U{gate}"] = h_in.T @ da
        grads[f"gen.gru.b{gate}"] = da.sum(axis=0)
    grads["gen.out.W"] = hid.T @ d_logits
    grads["gen.out.b"] = d_logits.sum(axis=0)
    return grads, loss
