"""Complex-valued bilinear embedding pretraining.

Each symbol owns a real vector of dimension 2k packed as [re || im]; the
triple scorer is the standard four-term bilinear form, so with all imaginary
halves zero it degenerates to a real trilinear product. Training minimizes a
logistic loss over positives and uniformly sampled filtered corruptions, on
the training split only. The resulting store seeds the prover, whose kernel
then operates directly on the packed 2k-vectors.

No autodiff graph is recorded. The score is trilinear, so
``batch_loss_grad`` writes the loss and its gradients in closed form, and
the step hands them to ``adam_step`` by parameter name.
Corruptions come from ``_sample_negatives``, which draws exactly the random
stream of calling the scalar sampler ``_sample_negative`` row by row: the
same negatives, the same dropped rows and the same generator state after.
"""

from __future__ import annotations

import functools

import numpy as np

from . import autodiff as ad
from .autodiff import ParameterStore
from .config import RunConfig
from .kb import Atom, Vocabulary

CONST_EMB = "const_emb"
PRED_EMB = "pred_emb"
SLOT_EMB = "slot_emb"


def init_store(n_constants: int, n_predicates: int, dim: int,
               rng: np.random.Generator) -> ParameterStore:
    if dim % 2 != 0:
        raise ValueError(f"embedding dim must be even (re/im halves), got {dim}")
    store = ParameterStore()
    store.add(CONST_EMB, rng.normal(0.0, 0.1, size=(n_constants, dim)))
    store.add(PRED_EMB, rng.normal(0.0, 0.1, size=(n_predicates, dim)))
    return store


def batch_loss_grad(store: ParameterStore, pos: np.ndarray, neg: np.ndarray,
                    weight_decay: float) -> tuple[float, np.ndarray, np.ndarray]:
    """Loss of one pretraining batch and its gradients, in closed form.

    ``pos`` and ``neg`` are int arrays of (pred, subj, obj) rows. With B
    positives the loss is [sum softplus(-s(pos)) + sum softplus(s(neg))
    + weight_decay * (squared norm of the positives' head, tail and relation
    rows)] / B. The score is trilinear, so each partial derivative is a sum
    of products of the other two factors, e.g. d s / d re_h = re_r*re_t +
    im_r*im_t. Row gradients are summed into one dense array per parameter.

    Returns (loss, d loss / d const_emb, d loss / d pred_emb).
    """
    E = store[CONST_EMB]
    W = store[PRED_EMB]
    B = len(pos)
    k = E.shape[1] // 2
    trip = np.concatenate([pos, neg])
    p, s, o = trip[:, 0], trip[:, 1], trip[:, 2]
    # gather from contiguous re/im halves, so every row block is contiguous
    E_re, E_im = np.ascontiguousarray(E[:, :k]), np.ascontiguousarray(E[:, k:])
    W_re, W_im = np.ascontiguousarray(W[:, :k]), np.ascontiguousarray(W[:, k:])
    re_h, im_h = E_re[s], E_im[s]
    re_r, im_r = W_re[p], W_im[p]
    re_t, im_t = E_re[o], E_im[o]
    # d s / d head; the score is linear in the head
    dh_re = re_r * re_t
    dh_re += im_r * im_t
    dh_im = re_r * im_t
    dh_im -= im_r * re_t
    score = np.einsum("ij,ij->i", re_h, dh_re) + np.einsum("ij,ij->i", im_h, dh_im)
    # x is the softplus argument: -s for positives, s for negatives
    x = np.concatenate([-score[:B], score[B:]])
    e = np.exp(-np.abs(x))
    loss = (np.maximum(x, 0.0) + np.log1p(e)).sum()
    # g = d loss / d s
    g = np.where(x >= 0, 1.0, e) / (1.0 + e) * (1.0 / B)
    g[:B] *= -1.0
    g = g[:, None]
    c = 2.0 * weight_decay / B
    if weight_decay > 0:
        rows = np.concatenate([re_h[:B], im_h[:B], re_t[:B], im_t[:B],
                               re_r[:B], im_r[:B]], axis=1)
        loss += np.sum(rows * rows) * weight_decay
    loss *= 1.0 / B

    # Each block of row gradients is summed into its parameter and dropped
    # before the next is formed, which keeps the step's peak memory low.
    n_c, n_p = len(E), len(W)
    dh_re *= g
    dh_im *= g
    dh_re[:B] += c * re_h[:B]
    dh_im[:B] += c * im_h[:B]
    flat = _flat_index(s, k)
    c_re = _scatter(flat, dh_re, n_c)
    c_im = _scatter(flat, dh_im, n_c)
    del dh_re, dh_im
    # from here on re_h, im_h hold g * head
    re_h *= g
    im_h *= g
    dr_re = re_h * re_t
    dr_re += im_h * im_t
    dr_im = re_h * im_t
    dr_im -= im_h * re_t
    dr_re[:B] += c * re_r[:B]
    dr_im[:B] += c * im_r[:B]
    flat = _flat_index(p, k)
    g_pred = np.concatenate([_scatter(flat, dr_re, n_p),
                             _scatter(flat, dr_im, n_p)], axis=1)
    del dr_re, dr_im
    dt_re = re_h * re_r
    dt_re -= im_h * im_r
    dt_im = im_h * re_r
    dt_im += re_h * im_r
    dt_re[:B] += c * re_t[:B]
    dt_im[:B] += c * im_t[:B]
    flat = _flat_index(o, k)
    c_re += _scatter(flat, dt_re, n_c)
    c_im += _scatter(flat, dt_im, n_c)
    return float(loss), np.concatenate([c_re, c_im], axis=1), g_pred


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

    Returns None when 100 draws in a row hit a known triple or the input;
    a negative is never a known fact.
    """
    p, s, o = triple
    for _ in range(100):
        c = int(rng.integers(n_constants))
        if rng.integers(2) == 0:
            cand = (p, c, o)
        else:
            cand = (p, s, c)
        if cand not in known and cand != triple:
            return cand
    return None


@functools.lru_cache(maxsize=1)
def _known_keys(known: frozenset, n_constants: int) -> np.ndarray:
    """Sorted int keys of the known triples, then a sentinel above them all.

    Cached for the one ``known`` set that a pretraining run samples against
    at every step; the array is read-only because every call shares it.
    """
    keys = np.fromiter(((p * n_constants + s) * n_constants + o
                        for p, s, o in known), np.int64, len(known))
    keys = np.append(np.sort(keys), np.iinfo(np.int64).max)
    keys.flags.writeable = False
    return keys


def _sample_negatives(rng: np.random.Generator, triples: np.ndarray,
                      n_constants: int, known: frozenset
                      ) -> tuple[np.ndarray, np.ndarray]:
    """``_sample_negative`` for every row of ``triples``, on the same stream.

    Returns (negatives, kept): row i of ``negatives`` is what the scalar
    loop ``[_sample_negative(rng, t, n_constants, known) for t in triples]``
    returns for row i, where ``kept[i]``; ``kept[i]`` is False where it
    returns None. The draws, their order and the generator's state after the
    call are exactly those of the scalar loop.

    One call to ``rng.integers`` with the bounds tiled as [n, 2, n, 2, ...]
    yields the same values, and leaves the generator in the same state, as
    the alternating scalar draws. So the remaining rows get one (constant,
    side) pair each, checked in one vectorized pass. At the first rejected
    row the generator is rewound, the pairs of the accepted rows are drawn
    again, and that row goes to ``_sample_negative``, which goes on drawing
    until it accepts or gives up.
    """
    triples = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
    m = len(triples)
    neg = triples.copy()
    kept = np.ones(m, dtype=bool)
    keys = _known_keys(known, n_constants)
    p, s, o = triples.T
    bounds = np.tile([n_constants, 2], m)
    i = 0
    while i < m:
        state = rng.bit_generator.state
        draws = rng.integers(0, bounds[2 * i:]).reshape(-1, 2)
        head = draws[:, 1] == 0
        cs = np.where(head, draws[:, 0], s[i:])
        co = np.where(head, o[i:], draws[:, 0])
        key = (p[i:] * n_constants + cs) * n_constants + co
        rejected = ((keys[np.searchsorted(keys, key)] == key)
                    | ((cs == s[i:]) & (co == o[i:])))
        r = int(np.argmax(rejected))
        if not rejected[r]:
            r = m - i
        neg[i:i + r, 1] = cs[:r]
        neg[i:i + r, 2] = co[:r]
        if i + r == m:
            break
        rng.bit_generator.state = state
        if r:
            rng.integers(0, bounds[:2 * r])
        cand = _sample_negative(rng, tuple(triples[i + r].tolist()),
                                n_constants, known)
        if cand is None:
            kept[i + r] = False
        else:
            neg[i + r] = cand
        i += r + 1
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
            neg, kept = _sample_negatives(
                rng, np.repeat(pos, cfg.pretrain_negatives, axis=0),
                vocab.n_constants, known)
            loss, g_const, g_pred = batch_loss_grad(
                store, pos, neg[kept], cfg.pretrain_weight_decay)
            ad.adam_step(store, {CONST_EMB: g_const, PRED_EMB: g_pred},
                         lr=cfg.pretrain_lr)
            epoch_loss += loss * len(pos)
        losses.append(epoch_loss / n)
    return store, losses


def score_tail_candidates(store: ParameterStore, h: int, r: int) -> np.ndarray:
    """Scores of (h, r, c) for every constant c, vectorized."""
    eh = store[CONST_EMB][h]
    wr = store[PRED_EMB][r]
    E = store[CONST_EMB]
    k = eh.shape[0] // 2
    re_h, im_h = eh[:k], eh[k:]
    re_r, im_r = wr[:k], wr[k:]
    a = re_h * re_r - im_h * im_r
    b = im_h * re_r + re_h * im_r
    return E[:, :k] @ a + E[:, k:] @ b


def score_head_candidates(store: ParameterStore, r: int, t: int) -> np.ndarray:
    """Scores of (c, r, t) for every constant c, vectorized."""
    et = store[CONST_EMB][t]
    wr = store[PRED_EMB][r]
    E = store[CONST_EMB]
    k = et.shape[0] // 2
    re_t, im_t = et[:k], et[k:]
    re_r, im_r = wr[:k], wr[k:]
    a = re_r * re_t + im_r * im_t
    b = re_r * im_t - im_r * re_t
    return E[:, :k] @ a + E[:, k:] @ b


def quick_filtered_mrr(store: ParameterStore, facts: list[Atom],
                       filter_set: frozenset, n_constants: int) -> float:
    """Filtered MRR of raw embedding ranking over both argument corruptions.

    Mean-tie rank; used as a pretraining quality probe, not the prover's
    evaluation protocol.
    """
    if not facts:
        return 0.0
    total = 0.0
    count = 0
    for f in facts:
        p = f.pred
        s, o = f.args
        for scores, true_idx, make in (
                (score_tail_candidates(store, s, p), o, lambda c: (p, s, c)),
                (score_head_candidates(store, p, o), s, lambda c: (p, c, o))):
            true_score = scores[true_idx]
            above = 0
            ties = 0
            for c in range(n_constants):
                if c == true_idx or make(c) in filter_set:
                    continue
                if scores[c] > true_score:
                    above += 1
                elif scores[c] == true_score:
                    ties += 1
            rank = 1 + above + ties // 2
            total += 1.0 / rank
            count += 1
    return total / count
