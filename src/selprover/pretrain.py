"""Complex-valued bilinear embedding pretraining.

Each symbol owns a real vector of dimension 2k packed as [re || im]; the
triple scorer is the standard four-term bilinear form, so with all imaginary
halves zero it degenerates to a real trilinear product. Training minimizes a
logistic loss over positives and uniformly sampled filtered corruptions, on
the training split only. The resulting store seeds the prover, whose kernel
then operates directly on the packed 2k-vectors.

No autodiff graph is recorded. The score is linear in each argument, so
``batch_loss_grad`` writes the loss and its gradients in closed form, and
the step hands them to ``adam_step`` by parameter name. A negative differs
from its positive in one argument, so the batch scores every constant in
each positive's head and tail slot with one matmul, and reads each sampled
score off that (2B, C) table: no row is gathered per negative.

Corruptions come from ``_sample_negatives``. It draws a batch's (constant,
side) pairs in one call and walks the rows against that one stream, in
vectorized chunks, so it gets exactly what calling the scalar sampler
``_sample_negative`` row by row gets: the same negatives, the same dropped
rows and the same generator state after. The prover's training loss draws
its corruptions through ``_sample_negatives`` too. The scalar sampler is the
reference that the batch sampler is checked against.

``ComplExScorer`` ranks with the pretrained embeddings alone.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import ParameterStore
from .config import RunConfig
from .kb import Atom, Vocabulary, known_keys

CONST_EMB = "const_emb"
PRED_EMB = "pred_emb"
SLOT_EMB = "slot_emb"

# draws of one corruption before ``_sample_negative`` gives up on its row
MAX_TRIES = 100
# rows that ``_sample_negatives`` checks against the pair stream at once
_WALK_CHUNK = 128


def init_store(n_constants: int, n_predicates: int, dim: int,
               rng: np.random.Generator) -> ParameterStore:
    if dim % 2 != 0:
        raise ValueError(f"embedding dim must be even (re/im halves), got {dim}")
    store = ParameterStore()
    store.add(CONST_EMB, rng.normal(0.0, 0.1, size=(n_constants, dim)))
    store.add(PRED_EMB, rng.normal(0.0, 0.1, size=(n_predicates, dim)))
    return store


def batch_loss_grad(store: ParameterStore, pos: np.ndarray, neg: np.ndarray,
                    src: np.ndarray, weight_decay: float
                    ) -> tuple[float, np.ndarray, np.ndarray]:
    """Loss of one pretraining batch and its gradients, in closed form.

    ``pos`` and ``neg`` are int arrays of (pred, subj, obj) rows, and
    ``neg[j]`` corrupts ``pos[src[j]]``: it keeps that positive's predicate
    and changes exactly one argument, else ``ValueError``. With B positives
    the loss is [sum softplus(-s(pos)) + sum softplus(s(neg))
    + weight_decay * (squared norm of the positives' head, tail and relation
    rows)] / B.

    Read as complex vectors, the score of (r, h, t) is Re(<h, r, conj(t)>),
    linear in each argument. Positive i = (r, h, t) has a head query
    hq_i = conj(r) t and a tail query tq_i = r h (``_query``), packed
    [re || im]: (r, c, t) scores E[c] . hq_i and (r, h, c) scores
    E[c] . tq_i. A head corruption is the first, a tail corruption the
    second, and the positive is E[h] . hq_i. So the table
    S = [hq; tq] @ E.T holds every score of the batch, and each is one
    lookup. The loss gradients of those scores are summed into a table G of
    the same shape; G.T @ [hq; tq] is then the gradient of every scored
    constant row, G @ E that of the queries, and the chain through the
    queries reaches the B positives' own rows, so only B rows are gathered
    and scattered, however many negatives there are. This is exact: it
    regroups the same sums, so it agrees with scoring each triple from its
    own gathered rows up to rounding.

    S and G each hold 2B x C floats for C constants: 258 x 95 on
    family-large, whose 129 training facts fit in one batch; at the default
    batch of 256, each is 4 KB per constant.

    Returns (loss, d loss / d const_emb, d loss / d pred_emb).
    """
    E = store[CONST_EMB]
    W = store[PRED_EMB]
    B, C = len(pos), len(E)
    p, s, o = pos.T
    src = np.asarray(src)
    if src.shape != (len(neg),):
        raise ValueError(f"src has shape {src.shape}, expected ({len(neg)},)")
    if len(src) and (src.min() < 0 or src.max() >= B):
        raise ValueError(f"src must index {B} positives, "
                         f"got {src.min()}..{src.max()}")
    changed = neg != pos[src]
    head = changed[:, 1]
    if changed[:, 0].any() or (head == changed[:, 2]).any():
        raise ValueError("each negative must keep its positive's predicate "
                         "and change exactly one argument")
    r = _complex(W[p])
    ht = _complex(E[np.concatenate([s, o])])
    h, t = ht[:B], ht[B:]
    Q = _packed(np.concatenate([_query(r, t, head=True),
                                _query(r, h, head=False)]))
    S = Q @ E.T
    # (row, column) of every score: the positives, then the negatives
    row = np.concatenate([np.arange(B), np.where(head, src, src + B)])
    col = np.concatenate([s, np.where(head, neg[:, 1], neg[:, 2])])
    score = S[row, col]
    # x is the softplus argument: -s for positives, s for negatives
    x = np.concatenate([-score[:B], score[B:]])
    e = np.exp(-np.abs(x))
    loss = (np.maximum(x, 0.0) + np.log1p(e)).sum()
    # g = d loss / d s
    g = np.where(x >= 0, 1.0, e) / (1.0 + e) * (1.0 / B)
    g[:B] *= -1.0
    c = 2.0 * weight_decay / B
    if weight_decay > 0:
        loss += (np.vdot(ht, ht).real + np.vdot(r, r).real) * weight_decay
    loss *= 1.0 / B

    G = np.bincount(row * C + col, weights=g, minlength=2 * B * C).reshape(2 * B, C)
    dQ = _complex(G @ E)
    dhq, dtq = dQ[:B], dQ[B:]
    # a complex entry u + iv has the gradient dL/du + i dL/dv; through
    # hq = conj(r) t and tq = r h, d t = r dhq, d h = conj(r) dtq and
    # d r = t conj(dhq) + conj(h) dtq
    d_ht = np.concatenate([_query(r, dtq, head=True),
                           _query(r, dhq, head=False)])
    d_ht += c * ht
    d_r = t * dhq.conj() + h.conj() * dtq + c * r
    g_const = G.T @ Q
    g_const += _scatter(_flat_index(np.concatenate([s, o]), E.shape[1]),
                        _packed(d_ht), C)
    g_pred = _scatter(_flat_index(p, W.shape[1]), _packed(d_r), len(W))
    return float(loss), g_const, g_pred


def _query(r: np.ndarray, a: np.ndarray, head: bool) -> np.ndarray:
    """ComplEx's query of complex relation rows ``r`` and argument rows ``a``.

    With ``head``, ``a`` is the tail t and the query is conj(r) t, so that
    E[c] . _packed(query) scores (r, c, t) for every constant c; otherwise
    ``a`` is the head h, the query is r h, and it scores (r, h, c).
    """
    return (r.conj() if head else r) * a


def _complex(packed: np.ndarray) -> np.ndarray:
    """Complex rows from real rows packed [re || im]."""
    k = packed.shape[-1] // 2
    return packed[..., :k] + 1j * packed[..., k:]


def _packed(z: np.ndarray) -> np.ndarray:
    """Real rows packed [re || im] from complex rows."""
    return np.concatenate([z.real, z.imag], axis=-1)


def _flat_index(rows: np.ndarray, k: int) -> np.ndarray:
    """Flat index, into an (n, k) array, of every entry of the given rows."""
    return (rows[:, None] * k + np.arange(k)).ravel()


def _scatter(flat: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """(n, k) array with each entry of ``values`` summed at its ``flat`` index.

    ``np.bincount`` sums repeated indices, several times faster than
    ``np.add.at``.
    """
    k = values.shape[1]
    return np.bincount(flat, weights=values.ravel(), minlength=n * k).reshape(n, k)


def _sample_negative(rng: np.random.Generator, triple: tuple[int, int, int],
                     n_constants: int, known: frozenset
                     ) -> tuple[int, int, int] | None:
    """Corrupt the head or the tail uniformly, rejecting known triples.

    Returns None when ``MAX_TRIES`` draws in a row hit a known triple or the
    input; a negative is never a known fact.
    """
    p, s, o = triple
    for _ in range(MAX_TRIES):
        c = int(rng.integers(n_constants))
        if rng.integers(2) == 0:
            cand = (p, c, o)
        else:
            cand = (p, s, c)
        if cand not in known and cand != triple:
            return cand
    return None


def _sample_negatives(rng: np.random.Generator, triples: np.ndarray,
                      n_constants: int, known: frozenset
                      ) -> tuple[np.ndarray, np.ndarray]:
    """``_sample_negative`` for every row of ``triples``, on the same stream.

    Returns (negatives, kept): row i of ``negatives`` is what the scalar
    loop ``[_sample_negative(rng, t, n_constants, known) for t in triples]``
    returns for row i, where ``kept[i]``; ``kept[i]`` is False where it
    returns None. The draws, their order and the generator's state after the
    call are exactly those of the scalar loop.

    Each try of the scalar loop takes one (constant, side) pair, and one
    call to ``rng.integers`` with the bounds tiled as [n, 2, n, 2, ...]
    yields the same pairs as the alternating scalar draws. So the pairs are
    drawn once, with some slack, and the rows walk that one stream. A chunk
    of rows is checked at once, row k against the k-th pair from a pointer;
    the rows before the first rejected one are accepted and move the
    pointer past their pairs. The rejected pair moves the pointer by one
    and counts one try of its row, and the next chunk starts again at that
    row; on its ``MAX_TRIES``-th try the row is dropped. Pairs that run out
    are drawn from the same stream. At the end the generator is rewound to
    its state before the call and draws exactly the pairs used, so it ends
    where the scalar loop ends.
    """
    triples = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
    m = len(triples)
    n = n_constants
    keys = known_keys(known, n)
    p, s, o = triples.T
    # a corruption is checked by its key: (p, c, o) is head_base + c * n,
    # (p, s, c) is tail_base + c, and the input itself is own
    own = (p * n + s) * n + o
    head_base = own - s * n
    tail_base = own - o
    chosen = own.copy()
    kept = np.ones(m, dtype=bool)

    def draw(n_pairs: int) -> np.ndarray:
        return rng.integers(0, np.tile([n, 2], n_pairs)).reshape(-1, 2)

    state = rng.bit_generator.state
    # one pair a row, and slack for the rows' rejected pairs
    pairs = draw(m + m // 8 + _WALK_CHUNK)
    used = i = tries = 0
    while i < m:
        r = min(_WALK_CHUNK, m - i)
        if used + r > len(pairs):
            pairs = np.concatenate([pairs, draw(m - i + _WALK_CHUNK)])
        c, side = pairs[used:used + r].T
        cand = np.where(side == 0, head_base[i:i + r] + c * n,
                        tail_base[i:i + r] + c)
        ok = ((keys[np.searchsorted(keys, cand)] != cand)
              & (cand != own[i:i + r]))
        a = r if ok.all() else int(ok.argmin())
        chosen[i:i + a] = cand[:a]
        i += a
        used += a
        if a:
            tries = 0
        if a == r:
            continue
        # row i rejects the pair at the pointer
        tries += 1
        used += 1
        if tries == MAX_TRIES:
            kept[i] = False
            i += 1
            tries = 0
    rng.bit_generator.state = state
    draw(used)
    neg = triples.copy()
    neg[:, 1] = chosen // n % n
    neg[:, 2] = chosen % n
    return neg, kept


def pretrain_embeddings(train: list[Atom], vocab: Vocabulary, cfg: RunConfig,
                        rng: np.random.Generator) -> tuple[ParameterStore, list[float]]:
    """Train packed complex embeddings on the training facts.

    Returns the store plus mean loss per epoch. Each step samples
    ``pretrain_negatives`` corruptions per positive with
    ``_sample_negatives`` (the random stream of the scalar sampler, draw for
    draw), takes the loss and its gradients from ``batch_loss_grad`` and
    hands the gradients to ``adam_step``; no graph is recorded.
    """
    if not train:
        raise ValueError("pretraining needs a nonempty training split")
    store = init_store(vocab.n_constants, vocab.n_predicates, cfg.embedding_dim, rng)
    known = frozenset(f.as_triple() for f in train)
    triples = np.array([f.as_triple() for f in train], dtype=np.int64)
    n = len(triples)
    losses: list[float] = []
    for _ in range(cfg.pretrain_epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for b0 in range(0, n, cfg.pretrain_batch):
            pos = triples[order[b0:b0 + cfg.pretrain_batch]]
            src = np.repeat(np.arange(len(pos)), cfg.pretrain_negatives)
            neg, kept = _sample_negatives(rng, pos[src], vocab.n_constants,
                                          known)
            loss, g_const, g_pred = batch_loss_grad(
                store, pos, neg[kept], src[kept], cfg.pretrain_weight_decay)
            ad.adam_step(store, {CONST_EMB: g_const, PRED_EMB: g_pred},
                         lr=cfg.pretrain_lr)
            epoch_loss += loss * len(pos)
        losses.append(epoch_loss / n)
    return store, losses


class ComplExScorer:
    """The pretrained ComplEx scores of every candidate constant at once.

    It has the ``score_tails``/``score_heads`` interface of
    ``scoring.BatchedEvaluator``, so ``evaluate.evaluate_ranking`` ranks the
    embeddings alone by the same filtered protocol as the prover.
    """

    def __init__(self, store: ParameterStore) -> None:
        self.E = store[CONST_EMB]
        self.E_c = _complex(self.E)
        self.W_c = _complex(store[PRED_EMB])

    def score_tails(self, rel: int, subj: int) -> np.ndarray:
        """Scores of (rel, subj, y) for every constant y."""
        return self.E @ _packed(_query(self.W_c[rel], self.E_c[subj], head=False))

    def score_heads(self, rel: int, obj: int) -> np.ndarray:
        """Scores of (rel, x, obj) for every constant x."""
        return self.E @ _packed(_query(self.W_c[rel], self.E_c[obj], head=True))
