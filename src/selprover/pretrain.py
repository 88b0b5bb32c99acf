"""Complex-valued bilinear embedding pretraining.

Each symbol owns a real vector of dimension 2k packed as [re || im]; the
triple scorer is the standard four-term bilinear form, so with all imaginary
halves zero it degenerates to a real trilinear product. Training minimizes a
logistic loss over positives and uniformly sampled filtered corruptions, on
the training split only. The resulting store seeds the prover, whose kernel
then operates directly on the packed 2k-vectors.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import ParameterStore, Tape
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


def complex_score_batch(tape: Tape, h_idx, r_idx, t_idx) -> ad.Value:
    """Differentiable batched scores, shape (B,)."""
    eh = tape.rows(CONST_EMB, h_idx)
    wr = tape.rows(PRED_EMB, r_idx)
    et = tape.rows(CONST_EMB, t_idx)
    k = eh.shape[1] // 2
    re_h, im_h = ad.slice_cols(eh, 0, k), ad.slice_cols(eh, k, 2 * k)
    re_r, im_r = ad.slice_cols(wr, 0, k), ad.slice_cols(wr, k, 2 * k)
    re_t, im_t = ad.slice_cols(et, 0, k), ad.slice_cols(et, k, 2 * k)
    terms = ad.add(
        ad.add(ad.mul(ad.mul(re_h, re_r), re_t), ad.mul(ad.mul(im_h, re_r), im_t)),
        ad.sub(ad.mul(ad.mul(re_h, im_r), im_t), ad.mul(ad.mul(im_h, im_r), re_t)))
    return ad.vsum(terms, axis=1)


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


def pretrain_embeddings(train: list[Atom], vocab: Vocabulary, cfg: RunConfig,
                        rng: np.random.Generator) -> tuple[ParameterStore, list[float]]:
    """Train packed complex embeddings on the training facts.

    Returns the store plus mean loss per epoch. Loss per positive is
    softplus(-s) plus softplus(s) over its sampled corruptions, with a light
    L2 penalty on the positive triple's rows.
    """
    if not train:
        raise ValueError("pretraining needs a nonempty training split")
    store = init_store(vocab.n_constants, vocab.n_predicates, cfg.embedding_dim, rng)
    known = frozenset(f.as_triple() for f in train)
    triples = [f.as_triple() for f in train]
    n = len(triples)
    losses: list[float] = []
    for _ in range(cfg.pretrain_epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for b0 in range(0, n, cfg.pretrain_batch):
            batch = [triples[i] for i in order[b0:b0 + cfg.pretrain_batch]]
            B = len(batch)
            neg = [_sample_negative(rng, t, vocab.n_constants, known)
                   for t in batch for _ in range(cfg.pretrain_negatives)]
            neg = [t for t in neg if t is not None]
            pp = np.array([t[0] for t in batch])
            ps = np.array([t[1] for t in batch])
            po = np.array([t[2] for t in batch])
            np_ = np.array([t[0] for t in neg])
            ns = np.array([t[1] for t in neg])
            no = np.array([t[2] for t in neg])
            tape = Tape(store)
            s_pos = complex_score_batch(tape, ps, pp, po)
            s_neg = complex_score_batch(tape, ns, np_, no)
            loss = ad.add(ad.vsum(ad.softplus(ad.mul(s_pos, -1.0))),
                          ad.vsum(ad.softplus(s_neg)))
            if cfg.pretrain_weight_decay > 0:
                rows = ad.concat_cols(tape.rows(CONST_EMB, ps),
                                      tape.rows(CONST_EMB, po))
                rows = ad.concat_cols(rows, tape.rows(PRED_EMB, pp))
                loss = ad.add(loss, ad.mul(ad.vsum(ad.mul(rows, rows)),
                                           cfg.pretrain_weight_decay))
            loss = ad.mul(loss, 1.0 / B)
            tape.backward(loss)
            ad.adam_step(store, tape, lr=cfg.pretrain_lr)
            epoch_loss += loss.item() * B
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
