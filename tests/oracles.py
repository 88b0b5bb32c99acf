"""Reference implementations used to check the fast engines.

Everything here trades speed for obviousness: explicit recursion returning
full result lists, kernels computed straight from embedding rows, no shared
code with the package internals. The enumeration oracle reads plain tuples:
facts are ``(pred, subj, obj)`` ints, rules are ``(head, body)`` atoms with
variables as negative ints, which ``rule_atoms`` writes for a package
``kb.Rule``. ``ReferenceScorer`` keeps the earlier closed form of the
batched ranker, which splits a depth-2 proof into three families over
folded predicate similarities and scores one anchor at a time, built once
forward and once on the reversed view; it shares only ``accel`` kernels
with the package's ``scoring`` recursion.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from selprover import accel
from selprover.evaluate import RankRecord
from selprover.kb import SHAPE_CHAIN, SHAPE_IMPLIES, SHAPE_INVERSE, Rule
from selprover.prover import kernel_tables


def constant_names(vocab) -> list[str]:
    """Every constant name of a ``kb.Vocabulary``, in id order."""
    return [vocab.constant_name(c) for c in range(vocab.n_constants)]


def serialize_triples(facts, vocab) -> str:
    """Facts as ``subject<TAB>predicate<TAB>object`` lines, the input format
    ``kb.parse_triples`` reads."""
    lines = [f"{vocab.constant_name(f.args[0])}\t{vocab.predicate_name(f.pred)}"
             f"\t{vocab.constant_name(f.args[1])}" for f in facts]
    return "\n".join(lines) + ("\n" if lines else "")


def complex_score(h: int, r: int, t: int, store):
    """Re(<e_h, w_r, conj(e_t)>) for one triple of symbol ids.

    Scalar reference for the scores inside ``pretrain.batch_loss_grad``, read
    straight from the packed [re || im] rows of ``const_emb`` and ``pred_emb``.
    ``store`` may be any mapping of those two names; the score is a numpy
    scalar of the rows' dtype, so extended-precision rows stay extended.
    """
    eh = store["const_emb"][h]
    wr = store["pred_emb"][r]
    et = store["const_emb"][t]
    k = eh.shape[0] // 2
    re_h, im_h = eh[:k], eh[k:]
    re_r, im_r = wr[:k], wr[k:]
    re_t, im_t = et[:k], et[k:]
    return np.sum(re_h * re_r * re_t + im_h * re_r * im_t
                  + re_h * im_r * im_t - im_h * im_r * re_t)


def batch_loss_grad_reference(store, pos, neg, weight_decay):
    """``pretrain.batch_loss_grad`` scored row by row from gathered rows.

    Every triple of the batch, positive or negative, gathers its own head,
    relation and tail rows, and each partial derivative is a sum of products
    of the other two factors, e.g. d s / d re_h = re_r*re_t + im_r*im_t;
    ``np.add.at`` sums the row gradients into one dense array per parameter.
    Negatives need not be corruptions of a positive, so this also checks
    that the package's table form reads each one off the right table.
    Returns (loss, d loss / d const_emb, d loss / d pred_emb).
    """
    E = store["const_emb"]
    W = store["pred_emb"]
    B = len(pos)
    k = E.shape[1] // 2
    trip = np.concatenate([pos, neg])
    p, s, o = trip[:, 0], trip[:, 1], trip[:, 2]
    re_h, im_h = E[s, :k], E[s, k:]
    re_r, im_r = W[p, :k], W[p, k:]
    re_t, im_t = E[o, :k], E[o, k:]
    # d s / d head; the score is linear in the head
    dh_re = re_r * re_t + im_r * im_t
    dh_im = re_r * im_t - im_r * re_t
    score = np.sum(re_h * dh_re + im_h * dh_im, axis=1)
    # x is the softplus argument: -s for positives, s for negatives
    x = np.concatenate([-score[:B], score[B:]])
    e = np.exp(-np.abs(x))
    loss = (np.maximum(x, 0.0) + np.log1p(e)).sum()
    # g = d loss / d s
    g = np.where(x >= 0, 1.0, e) / (1.0 + e) / B
    g[:B] *= -1.0
    g = g[:, None]
    c = 2.0 * weight_decay / B
    for rows in (re_h, im_h, re_t, im_t, re_r, im_r):
        loss += weight_decay * np.sum(rows[:B] ** 2)
    loss /= B

    def decayed(grad, rows):
        grad[:B] += c * rows[:B]
        return grad

    dh_re = decayed(g * dh_re, re_h)
    dh_im = decayed(g * dh_im, im_h)
    dr_re = decayed(g * (re_h * re_t + im_h * im_t), re_r)
    dr_im = decayed(g * (re_h * im_t - im_h * re_t), im_r)
    dt_re = decayed(g * (re_h * re_r - im_h * im_r), re_t)
    dt_im = decayed(g * (im_h * re_r + re_h * im_r), im_t)
    g_const = np.zeros_like(E)
    g_pred = np.zeros_like(W)
    np.add.at(g_const, s, np.concatenate([dh_re, dh_im], axis=1))
    np.add.at(g_const, o, np.concatenate([dt_re, dt_im], axis=1))
    np.add.at(g_pred, p, np.concatenate([dr_re, dr_im], axis=1))
    return float(loss), g_const, g_pred


def pretrain_reference(train, vocab, cfg, rng, row_wise=False):
    """``pretrain.pretrain_embeddings`` with corruptions drawn row by row.

    Each positive of a batch gets ``pretrain_negatives`` calls to the scalar
    sampler ``pretrain._sample_negative``, in batch order, and a call that
    gives up adds no negative. The loss, its gradients and the update come
    from the package's ``batch_loss_grad`` and ``adam_step``, so the batch
    sampler is the one part this loop does differently; with ``row_wise``
    the loss and gradients come from ``batch_loss_grad_reference`` instead.
    Returns (store, mean loss per epoch).
    """
    from selprover import autodiff, pretrain

    store = pretrain.init_store(vocab.n_constants, vocab.n_predicates,
                                cfg.embedding_dim, rng)
    triples = [f.as_triple() for f in train]
    known = frozenset(triples)
    losses = []
    for _ in range(cfg.pretrain_epochs):
        order = rng.permutation(len(triples))
        epoch_loss = 0.0
        for b0 in range(0, len(triples), cfg.pretrain_batch):
            pos = [triples[j] for j in order[b0:b0 + cfg.pretrain_batch]]
            neg, src = [], []
            for i, t in enumerate(pos):
                for _ in range(cfg.pretrain_negatives):
                    cand = pretrain._sample_negative(rng, t, vocab.n_constants,
                                                     known)
                    if cand is not None:
                        neg.append(cand)
                        src.append(i)
            pos = np.array(pos, dtype=np.int64)
            neg = np.array(neg, dtype=np.int64).reshape(-1, 3)
            if row_wise:
                loss, g_const, g_pred = batch_loss_grad_reference(
                    store, pos, neg, cfg.pretrain_weight_decay)
            else:
                loss, g_const, g_pred = pretrain.batch_loss_grad(
                    store, pos, neg, np.array(src, dtype=np.int64),
                    cfg.pretrain_weight_decay)
            autodiff.adam_step(store, {pretrain.CONST_EMB: g_const,
                                       pretrain.PRED_EMB: g_pred},
                               lr=cfg.pretrain_lr)
            epoch_loss += loss * len(pos)
        losses.append(epoch_loss / len(triples))
    return store, losses


def training_loss_reference(positives, view, store, cfg, hq, counters,
                            known_facts, rng, tables=None):
    """``prover.training_loss`` with each goal's corruptions drawn by the
    scalar sampler ``pretrain._sample_negative``, one call at a time between
    that goal's proofs, as the loss drew them before it sampled in batch.

    Proofs, the bottleneck-entry gradient and the clamps come from the
    package, through ``prover.prove_goal`` and ``prover._entry_rows``, so
    how the corruptions are drawn is the one thing this loop does
    differently. Returns (loss, gradients, stats).
    """
    from selprover import pretrain, prover
    from selprover.kb import Atom

    pconf = prover.ProverConfig(max_depth=cfg.max_depth,
                                min_score=cfg.min_score, beam=cfg.beam)
    if tables is None:
        tables = prover.kernel_tables(store)
    n_real = store["pred_emb"].shape[0]
    n_const = store["const_emb"].shape[0]
    c = cfg.score_clamp
    terms, grads, pos_scores, neg_scores = [], {}, [], []

    def add_term(result, negative):
        K = result.score
        entry = result.state.entry if result.state is not None else None
        if entry is not None:
            (nu, iu), (nv, iv) = prover._entry_rows(entry, n_real)
            d = store[nu][iu] - store[nv][iv]
            K = np.exp(-(d * d).sum())
        s = np.clip(K, c, 1.0 - c)
        if negative:
            q = np.clip(1.0 - s, c, 1.0)
            terms.append(-np.log(q))
            dK = 1.0 / q
        else:
            terms.append(-np.log(s))
            dK = -1.0 / s
        if entry is None:
            return
        gu = grads.setdefault(nu, np.zeros_like(store[nu]))
        gv = grads.setdefault(nv, np.zeros_like(store[nv]))
        if c < K < 1.0 - c:
            row = -2.0 * (dK * K * d)
            gu[iu] += row
            gv[iv] -= row

    for goal in positives:
        res = prover.prove_goal(goal, view, store, pconf, hq, counters, tables,
                                exclude_fact=view.parent.fact_id(goal))
        pos_scores.append(res.score)
        add_term(res, negative=False)
        for _ in range(cfg.prover_negatives):
            cand = pretrain._sample_negative(rng, goal.as_triple(), n_const,
                                             known_facts)
            if cand is None:
                continue
            res = prover.prove_goal(Atom(cand[0], (cand[1], cand[2])), view,
                                    store, pconf, hq, counters, tables)
            neg_scores.append(res.score)
            add_term(res, negative=True)
    stats = {
        "mean_pos": float(np.mean(pos_scores)) if pos_scores else 0.0,
        "mean_neg": float(np.mean(neg_scores)) if neg_scores else 0.0,
        "goals_pos": len(pos_scores),
        "proved_pos": sum(1 for s in pos_scores if s > 0.0),
        "goals_neg": len(neg_scores),
        "proved_neg": sum(1 for s in neg_scores if s > 0.0),
    }
    return float(np.sum(terms)), grads, stats


def select_kbs_reference(kb, logic_predicates, proportion, store, goal_rel,
                         tables):
    """``em.select_kbs`` by a tuple sort: every matching item as (item id,
    head predicate), sorted by (-generation score of the head's real
    predicate, -Kp[head, goal], item id), the first ``cap`` kept.

    Returns (fact ids, rule ids) as sorted lists of ints.
    """
    import math

    from selprover.generator import nearest_real_predicate

    if not logic_predicates:
        return [], []
    cap = math.ceil(proportion * kb.n_items)
    to_real = nearest_real_predicate(store)
    gen_score = np.full(to_real.shape[0], -1.0)
    for p, s in logic_predicates.items():
        gen_score[p] = s
    items = ([(i, int(kb.fact_pred[i])) for i in range(kb.n_facts)]
             + [(kb.n_facts + j, r.head) for j, r in enumerate(kb.rules)])
    items = [(i, h) for i, h in items if gen_score[to_real[h]] >= 0.0]
    if len(items) > cap:
        sim = tables[0][:, goal_rel]
        items = sorted(items, key=lambda ih: (-gen_score[to_real[ih[1]]],
                                              -sim[ih[1]], ih[0]))[:cap]
    keep = sorted(i for i, _ in items)
    return ([i for i in keep if i < kb.n_facts],
            [i - kb.n_facts for i in keep if i >= kb.n_facts])


def composite_expression(a, b, c):
    """sum(sigmoid(h / 2) * h) with h = tanh(a @ b + c), in the rows' dtype.

    Numpy reference for the tape composite in ``tests/test_autodiff.py``;
    ``np.longdouble`` rows keep its rounding error below what a central
    difference at eps 1e-5 must resolve for gradients near 1e-8.
    """
    h = np.tanh(a @ b + c)
    return np.sum(h / (1 + np.exp(-h / 2)))


def okernel(E: np.ndarray, i: int, j: int) -> float:
    d = E[i] - E[j]
    return float(np.exp(-np.dot(d, d)))


@dataclass
class OracleStats:
    or_calls: int = 0
    established: int = 0
    scores: list = field(default_factory=list)
    entries: list = field(default_factory=list)
    harvest: dict = field(default_factory=dict)


def oracle_prove(goal, facts, rules, Ep, Ec, max_depth, threshold,
                 exclude_fact=-1, beam=0, tables=None):
    """All completed proof scores of a ground goal, by brute enumeration.

    Returns (best_score, stats); best is 0.0 when nothing completes. The
    semantics mirror the contract the engine must satisfy: min-of-kernels
    scoring, thresholded unification, depth-guarded bodies, hard failure on
    re-binding a locally bound variable to a different constant. A positive
    ``beam`` keeps, after each or-step has collected all of its results,
    the ``beam`` best of them (a stable sort, so ties keep their order).
    ``stats.harvest`` maps every item that unified (fact ``i``, rule
    ``len(facts) + j``) to (max score, min level), in first-unification
    order; level 1 is the goal's own or-step.
    ``stats.entries`` holds each proof's bottleneck in the prover's
    ``(kind, i, j)`` form, ``None`` while no factor fell below 1: a factor
    takes over only when strictly below the running minimum, so ties stay
    with the earliest (the predicate, then the arguments in order).
    ``tables`` (``Kp``, ``Kc``) replaces the kernels computed from ``Ep`` and
    ``Ec``; a NaN predicate kernel then acts like 1.
    """
    counter = [0]
    stats = OracleStats()
    if tables is None:
        def kp(i, j):
            return okernel(Ep, i, j)

        def kc(i, j):
            return okernel(Ec, i, j)
    else:
        def kp(i, j):
            return float(tables[0][i, j])

        def kc(i, j):
            return float(tables[1][i, j])

    def fresh():
        counter[0] += 1
        return -(10_000 + counter[0])

    def walk(t, env):
        while t < 0 and t in env:
            t = env[t]
        return t

    def unify(head, goal_atom, env, score, entry, item, level):
        # the prover reads a fact's kernels as K[goal, fact] and a rule
        # head's as Kp[head, goal]
        pair = ((goal_atom[0], head[0]) if item < len(facts)
                else (head[0], goal_atom[0]))
        s, e = score, entry
        k = kp(*pair)
        if k < s:
            s, e = k, (0, *pair)
        local: dict = {}
        for ha_raw, ga_raw in ((head[1], goal_atom[1]), (head[2], goal_atom[2])):
            ha_e = walk(ha_raw, env)
            ga_e = walk(ga_raw, env)
            ha = walk(ha_e, local)
            ga = walk(ga_e, local)
            if ha < 0:
                if ha != ga:
                    local[ha] = ga
            elif ga < 0:
                local[ga] = ha
            elif ha == ga:
                continue
            else:
                if ha_e < 0 or ga_e < 0:
                    return None  # conflicting re-bind inside this unification
                k = kc(ga, ha)
                if k < s:
                    s, e = k, (1, ga, ha)
        if s < threshold:
            return None
        stats.established += 1
        prev = stats.harvest.get(item)
        stats.harvest[item] = ((s, level) if prev is None
                               else (max(prev[0], s), min(prev[1], level)))
        return {**env, **local}, s, e

    def rename(atom, mapping):
        return (atom[0],
                mapping.get(atom[1], atom[1]),
                mapping.get(atom[2], atom[2]))

    def orx(goal_atom, d, env, score, entry):
        stats.or_calls += 1
        level = max_depth - d + 1
        out = []
        for i, f in enumerate(facts):
            if i == exclude_fact:
                continue
            r = unify(f, goal_atom, env, score, entry, i, level)
            if r is not None:
                out.append(r)
        for j, (head, body) in enumerate(rules):
            vars_here = sorted({t for a in (head, *body) for t in a[1:] if t < 0},
                               reverse=True)
            mapping = {v: fresh() for v in vars_here}
            r = unify(rename(head, mapping), goal_atom, env, score, entry,
                      len(facts) + j, level)
            if r is None:
                continue
            env2, s2, e2 = r
            out.extend(andx([rename(b, mapping) for b in body], d, env2, s2,
                            e2))
        if beam > 0:
            out = sorted(out, key=lambda r: -r[1])[:beam]
        return out

    def andx(body, d, env, score, entry):
        if not body:
            return [(env, score, entry)]
        if d <= 0:
            return []
        first = (body[0][0], walk(body[0][1], env), walk(body[0][2], env))
        out = []
        for env2, s2, e2 in orx(first, d - 1, env, score, entry):
            out.extend(andx(body[1:], d, env2, s2, e2))
        return out

    results = orx(goal, max_depth, {}, 1.0, None)
    stats.scores = [s for _, s, _ in results]
    stats.entries = [e for _, _, e in results]
    best = max(stats.scores, default=0.0)
    return best, stats


def known_triples(kb) -> frozenset:
    """Every stored fact of a ``kb.KnowledgeBase`` as a (pred, subj, obj)
    triple: the known set corruptions are filtered against."""
    return frozenset(f.as_triple() for f in kb.facts)


def rule_atoms(rule):
    """A package ``kb.Rule`` as the ``(head, body)`` atoms ``oracle_prove``
    reads, over the variables X, Y, Z = -1, -2, -3."""
    X, Y, Z = -1, -2, -3
    head = (rule.head, X, Y)
    if rule.shape == SHAPE_IMPLIES:
        return head, [(rule.body1, X, Y)]
    if rule.shape == SHAPE_INVERSE:
        return head, [(rule.body1, Y, X)]
    return head, [(rule.body1, X, Z), (rule.body2, Z, Y)]


def random_proof_case(rng: np.random.Generator, max_facts=12, max_rules=3):
    """Random tiny knowledge base + goal for engine/oracle comparison.

    Rules are package ``kb.Rule``s of the three template shapes over a
    shared predicate space; ``rule_atoms`` writes them for the oracle.
    """
    n_pred = int(rng.integers(2, 5))
    n_const = int(rng.integers(2, 7))
    dim = int(rng.integers(2, 5))
    # spread out so kernel values vary across (0, 1]
    Ep = rng.normal(0.0, 0.9, size=(n_pred, dim))
    Ec = rng.normal(0.0, 0.9, size=(n_const, dim))
    n_facts = int(rng.integers(1, max_facts + 1))
    seen = set()
    facts = []
    for _ in range(n_facts):
        t = (int(rng.integers(n_pred)), int(rng.integers(n_const)),
             int(rng.integers(n_const)))
        if t not in seen:
            seen.add(t)
            facts.append(t)
    rules = []
    for _ in range(int(rng.integers(0, max_rules + 1))):
        h = int(rng.integers(n_pred))
        b = int(rng.integers(n_pred))
        shape = rng.integers(3)
        if shape == 0:
            rules.append(Rule(SHAPE_IMPLIES, h, b))
        elif shape == 1:
            rules.append(Rule(SHAPE_INVERSE, h, b))
        else:
            rules.append(Rule(SHAPE_CHAIN, h, b, int(rng.integers(n_pred))))
    goal = (int(rng.integers(n_pred)), int(rng.integers(n_const)),
            int(rng.integers(n_const)))
    threshold = float(rng.choice([0.0, 0.05, 0.2, 0.5]))
    return facts, rules, Ep, Ec, goal, threshold


def auc_pr_bruteforce(scores, labels) -> float:
    """Area under precision-recall by direct threshold sweep.

    Thresholds are the distinct scores in descending order; each step keeps
    everything at or above it, ties enter together. Area is the step sum
    (R_i - R_{i-1}) * P_i starting from recall 0.
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=int)
    n_pos = int(labels.sum())
    if n_pos == 0:
        return 0.0
    area = 0.0
    prev_recall = 0.0
    for t in sorted(set(scores.tolist()), reverse=True):
        kept = scores >= t
        tp = int(labels[kept].sum())
        precision = tp / int(kept.sum())
        recall = tp / n_pos
        area += (recall - prev_recall) * precision
        prev_recall = recall
    return area


def rank_filtered(fact, scorer, known: frozenset):
    """Filtered rank of a fact against both argument corruptions, one
    candidate at a time: the reference for ``evaluate.evaluate_ranking``.

    Corruptions replace either argument with every constant; candidates that
    are themselves known facts are filtered out. Ties with the fact's own
    score contribute half their count (mean tie handling), so the rank is
    invariant under relabeling among equals.
    """
    rel, (subj, obj) = fact.pred, fact.args
    tails = scorer.score_tails(rel, subj)
    heads = scorer.score_heads(rel, obj)
    pivot = float(tails[obj])
    above = ties = count = 0
    for c in range(tails.shape[0]):
        if c != obj and (rel, subj, c) not in known:
            s = float(tails[c])
            count += 1
            above += s > pivot
            ties += s == pivot
        if c != subj and (rel, c, obj) not in known:
            s = float(heads[c])
            count += 1
            above += s > pivot
            ties += s == pivot
    return RankRecord(fact, 1 + above + ties // 2, count)


# ---------------------------------------------------------------------------
# the closed form by proof families, per anchor: the reference for
# scoring.BatchedEvaluator
# ---------------------------------------------------------------------------


def _matmat(A: np.ndarray, B: np.ndarray, th: float) -> np.ndarray:
    """Max-min product over the rows of A and the inner indices that reach th."""
    a = A >= th
    rows = a.any(axis=1)
    inner = a.any(axis=0) & (B >= th).any(axis=1)
    if rows.all() and inner.all():
        return accel.maxmin_matmat(A, B)
    out = np.zeros((A.shape[0], B.shape[1]))
    if rows.any() and inner.any():
        out[rows] = accel.maxmin_matmat(A[np.ix_(rows, inner)], B[inner])
    return out


def _group(psim: np.ndarray, soft_idx: np.ndarray, grp_idx: np.ndarray,
           Kc: np.ndarray, th: float) -> np.ndarray:
    """accel.strict_group over the facts whose predicate factor reaches th."""
    keep = psim >= th
    if keep.all():
        return accel.strict_group(psim, soft_idx, grp_idx, Kc)
    return accel.strict_group(psim[keep], soft_idx[keep], grp_idx[keep], Kc)


def _live(T: np.ndarray, th: float) -> bool:
    return bool((T >= th).any())


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------


def _compose(Kp: np.ndarray, heads: np.ndarray, bodies: np.ndarray,
             S: np.ndarray, th: float) -> np.ndarray:
    """One I-link step: out[q,p] = max_j min(Kp[q, h_j], S[b_j, p])."""
    return _matmat(Kp[:, heads], S[bodies], th)


def _sim_matrices(Kp: np.ndarray, imp_h, imp_b, inv_h, inv_b, depth: int,
                  th: float) -> np.ndarray:
    """Effective predicate similarity through <= depth I-links, as
    [forward | swapped]: column p is a same-direction fact of predicate p,
    column P + p one with its arguments swapped."""
    simF, simR = Kp, np.zeros_like(Kp)
    for _ in range(min(depth, 2)):
        simF, simR = (
            np.maximum(Kp, np.maximum(_compose(Kp, imp_h, imp_b, simF, th),
                                      _compose(Kp, inv_h, inv_b, simR, th))),
            np.maximum(_compose(Kp, imp_h, imp_b, simR, th),
                       _compose(Kp, inv_h, inv_b, simF, th)),
        )
    return np.hstack([simF, simR])


@dataclass(slots=True)
class _Pass:
    """The forward tables of a view.

    Fact arrays list every fact twice, as stored and with its arguments
    swapped: ``col`` indexes a [forward | swapped] similarity row, ``anchor``
    is the argument unified with the query's anchor constant, and ``key`` the
    one the free variable binds to. Chain arrays hold the chains whose first
    body is scored (``hd``); the stacked tables hold live chains only.
    """
    col: np.ndarray       # (2F,) fact column in a [forward | swapped] row
    anchor: np.ndarray    # (2F,)
    key: np.ndarray       # (2F,)
    sim: np.ndarray       # (P, 2P) goal-level predicate similarity
    hd: np.ndarray        # (N,) heads of the scored chains
    body1: np.ndarray     # (N, L) first-body similarity per kept fact
    b1_anchor: np.ndarray  # (L,) facts where some first body reaches theta
    b1_key: np.ndarray    # (L,)
    t_rows: np.ndarray    # (Lt,) rows of hd whose second-body table is live
    T: np.ndarray         # (Lt*C, C) stacked second-body pair tables
    W1: np.ndarray        # (N, Ls): Kp[b1_i, hd_j] for live H2strict chains j
    H2s: np.ndarray       # (Ls, C, C) nested chain, final object strict
    W2t: np.ndarray       # (Lh, N): Kp[b2_i, hd_j] for live H2 chains j
    H2: np.ndarray        # (Lh, C, C) nested chain, candidate side soft
    GI: np.ndarray        # (P, 2Lh): best implies | inverse link into chain j


def _build_pass(Kp: np.ndarray, Kc: np.ndarray, p_idx, s_idx, o_idx,
                imp_h, imp_b, inv_h, inv_b, chains, depth: int, th: float,
                sim: np.ndarray, body: np.ndarray) -> _Pass:
    """``sim`` is ``_sim_matrices`` at ``depth`` and ``body`` one I-link
    shallower (none below depth 2); neither depends on the direction."""
    P = Kp.shape[0]
    C = Kc.shape[0]
    col = np.concatenate([p_idx, p_idx + P])
    anchor = np.concatenate([s_idx, o_idx])
    key = np.concatenate([o_idx, s_idx])
    if depth == 0 or not len(p_idx):
        chains = []
    # second chain body through facts or one I-link, facts taken both ways
    t_live, T = [], []
    for j, (_, _, b2) in enumerate(chains):
        Tj = _matmat(_group(body[b2][col], anchor, key, Kc, th), Kc, th)
        if _live(Tj, th):
            t_live.append(j)
            T.append(Tj)
    # nested chain whose bodies are plain facts
    h2s_live, H2s, h2_live, H2 = [], [], [], []
    if depth >= 2:
        for j, (_, b1, b2) in enumerate(chains):
            Ms1 = _group(Kp[b1][p_idx], s_idx, o_idx, Kc, th)
            Ms2 = _group(Kp[b2][p_idx], s_idx, o_idx, Kc, th)
            H2j = _matmat(Ms1, _matmat(Ms2, Kc, th), th)
            if _live(H2j, th):
                h2_live.append(j)
                H2.append(H2j)
            H2sj = _matmat(Ms1, Ms2, th)
            if _live(H2sj, th):
                h2s_live.append(j)
                H2s.append(H2sj)
    # a live nested chain can sit under any chain's second body
    need = np.arange(len(chains)) if h2_live else np.array(t_live, np.int64)
    ch = np.array(chains, dtype=np.int64).reshape(-1, 3)
    hd, b1, b2 = ch[need, 0], ch[need, 1], ch[need, 2]
    body1 = body[b1][:, col]
    kept = (body1 >= th).any(axis=0)
    hd_h2 = ch[h2_live, 0]

    def stack(tables):
        return np.array(tables) if tables else np.zeros((0, C, C))

    return _Pass(
        col=col, anchor=anchor, key=key, sim=sim, hd=hd,
        body1=body1[:, kept], b1_anchor=anchor[kept], b1_key=key[kept],
        t_rows=np.searchsorted(need, t_live), T=stack(T).reshape(-1, C),
        W1=Kp[np.ix_(b1, ch[h2s_live, 0])], H2s=stack(H2s),
        W2t=Kp[np.ix_(b2, hd_h2)].T.copy(), H2=stack(H2),
        GI=np.hstack([_compose(Kp, imp_h, imp_b, Kp[:, hd_h2], th),
                      _compose(Kp, inv_h, inv_b, Kp[:, hd_h2], th)]))


def _matvec(M: np.ndarray, v: np.ndarray, th: float) -> np.ndarray:
    """out[i] = max_k min(M[i,k], v[k]) over the k where v reaches th."""
    keep = v >= th
    if keep.all():
        return accel.maxmin_matvec(M, v)
    if not keep.any():
        return np.zeros(M.shape[0])
    return accel.maxmin_matvec(M[:, keep], v[keep])


def _vecmat(v: np.ndarray, M: np.ndarray, th: float) -> np.ndarray:
    """out[j] = max_i min(v[i], M[i,j]) over the i where v reaches th."""
    keep = v >= th
    if keep.all():
        return accel.maxmin_vecmat(v, M)
    if not keep.any():
        return np.zeros(M.shape[1])
    return accel.maxmin_vecmat(v[keep], M[keep])


def reference_passes(view, Kp, Kc, max_depth, th):
    """Forward and reversed ``_Pass`` tables of a view.

    The reversed tables are the forward ones of the reversed view: facts
    swap subject and object, chains swap their two body slots, and both
    implication shapes map to themselves.
    """
    imp, inv, chains = [], [], []
    for rid in view.rule_ids:
        shape, hd, b1, b2 = view.parent.rules[rid]
        if shape == SHAPE_IMPLIES:
            imp.append((hd, b1))
        elif shape == SHAPE_CHAIN:
            chains.append((hd, b1, b2))
        else:
            inv.append((hd, b1))
    links = (np.array([h for h, _ in imp], dtype=np.int64),
             np.array([b for _, b in imp], dtype=np.int64),
             np.array([h for h, _ in inv], dtype=np.int64),
             np.array([b for _, b in inv], dtype=np.int64))
    p, s, o = (a.astype(np.int64) for a in (view.pred, view.subj, view.obj))
    sims = (_sim_matrices(Kp, *links, max_depth, th),
            _sim_matrices(Kp, *links, 1 if max_depth >= 2 else 0, th))
    fwd = _build_pass(Kp, Kc, p, s, o, *links, chains, max_depth, th, *sims)
    rev_chains = [(hd, b2, b1) for hd, b1, b2 in chains]
    rev = _build_pass(Kp, Kc, p, o, s, *links, rev_chains, max_depth, th,
                      *sims)
    return fwd, rev


class ReferenceScorer:
    """Per-anchor closed form over forward and reversed tables: the
    reference for ``scoring.BatchedEvaluator``'s relation matrices."""

    def __init__(self, view, store, max_depth=2, min_score=0.1):
        self.Kp, self.Kc = kernel_tables(store)
        self.min_score = float(min_score)
        self.n_constants = self.Kc.shape[0]
        self._fwd, self._rev = reference_passes(view, self.Kp, self.Kc,
                                                max_depth, self.min_score)

    def score_tails(self, rel: int, subj: int) -> np.ndarray:
        return self._score(self._fwd, rel, subj)

    def score_heads(self, rel: int, obj: int) -> np.ndarray:
        return self._score(self._rev, rel, obj)

    def _score(self, pa: _Pass, rel: int, a: int) -> np.ndarray:
        C = self.n_constants
        th = self.min_score
        Ka = self.Kc[a]
        # family A: implication links only, then one soft fact sweep
        u = np.minimum(pa.sim[rel][pa.col], Ka[pa.anchor])
        live = u >= th
        w = accel.scatter_max(pa.key[live], u[live], C)
        V = _matvec(self.Kc, w, th)
        cap = self.Kp[rel][pa.hd]
        if _live(cap, th):
            # family B: first chain body binds the middle constant, all
            # scored chains in one scatter keyed by (chain, middle)
            anc = Ka[pa.b1_anchor]
            f = anc >= th
            U = np.minimum(np.minimum(pa.body1[:, f], anc[f]), cap[:, None])
            i, k = np.nonzero(U >= th)
            B1 = accel.scatter_max(i * C + pa.b1_key[f][k], U[i, k],
                                   len(cap) * C).reshape(-1, C)
            if len(pa.H2s):
                # first body through a nested chain
                B1C = _matmat(pa.W1, pa.H2s[:, a], th)
                np.maximum(B1, np.minimum(B1C, cap[:, None]), out=B1)
            if len(pa.T):
                np.maximum(V, _vecmat(B1[pa.t_rows].ravel(), pa.T, th),
                           out=V)
            if len(pa.H2):
                # second chain body through a nested chain
                Q = _matmat(pa.W2t, B1, th)
                np.maximum(V, _vecmat(Q.ravel(), pa.H2.reshape(-1, C), th),
                           out=V)
        if len(pa.H2):
            # family C: one implication link into a plain-fact chain
            rows = np.concatenate([pa.H2[:, a], pa.H2[:, :, a]])
            np.maximum(V, _vecmat(pa.GI[rel], rows, th), out=V)
        V[V < th] = 0.0
        return V


def nns_oracle(anchors: np.ndarray, items: np.ndarray):
    """For each item row, index of the nearest anchor row (Euclidean).

    Quadratic all-pairs distances with a full sort; ties break toward the
    smaller anchor index.
    """
    out = []
    for x in items:
        d = [(float(np.sqrt(np.sum((x - a) ** 2))), i)
             for i, a in enumerate(anchors)]
        d.sort()
        out.append(d[0][1])
    return out


def _tape_hidden(tape, h_prev, r_prev: int, r_cur: int):
    """One GRU step on a (1, D) row, every op recorded on ``tape``."""
    from selprover import autodiff as ad

    def leaf(name):
        return tape.leaf(f"gen.{name}")

    pair = ad.concat_cols(tape.rows("pred_emb", [r_prev]),
                          tape.rows("pred_emb", [r_cur]))
    x = ad.add(ad.matmul(pair, leaf("g.W")), leaf("g.b"))
    z = ad.sigmoid(ad.add(ad.add(ad.matmul(x, leaf("gru.Wz")),
                                 ad.matmul(h_prev, leaf("gru.Uz"))),
                          leaf("gru.bz")))
    r = ad.sigmoid(ad.add(ad.add(ad.matmul(x, leaf("gru.Wr")),
                                 ad.matmul(h_prev, leaf("gru.Ur"))),
                          leaf("gru.br")))
    htil = ad.tanh(ad.add(ad.add(ad.matmul(x, leaf("gru.Wh")),
                                 ad.matmul(ad.mul(r, h_prev), leaf("gru.Uh"))),
                          leaf("gru.bh")))
    return ad.add(ad.sub(h_prev, ad.mul(z, h_prev)), ad.mul(z, htil))


def _tape_start(tape, goal_rel: int):
    from selprover import autodiff as ad

    e = tape.rows("pred_emb", [goal_rel])
    return ad.add(ad.matmul(e, tape.leaf("gen.f.W")), tape.leaf("gen.f.b"))


def _tape_logits(tape, h):
    from selprover import autodiff as ad

    return ad.add(ad.matmul(h, tape.leaf("gen.out.W")),
                  tape.leaf("gen.out.b"))


def tape_generate_predicates(goal_rel: int, store, width: int, depth: int):
    """``generator.generate_predicates`` one beam and one (1, D) row at a
    time on the autodiff tape: the same beam rules (stable argsort, sort by
    (-cumulative, predicate), width^2 cap), no stacking."""
    from selprover import autodiff as ad

    tape = ad.Tape(store)
    out = {goal_rel: 1.0}
    beams = [(1.0, goal_rel, goal_rel, _tape_start(tape, goal_rel))]
    for _ in range(depth):
        grown = []
        for cum, rp, rc, h in beams:
            h2 = _tape_hidden(tape, h, rp, rc)
            probs = ad.softmax(_tape_logits(tape, h2)).data[0]
            for p in np.argsort(-probs, kind="stable")[:width]:
                p = int(p)
                score = float(probs[p])
                if score > out.get(p, 0.0):
                    out[p] = score
                grown.append((cum * score, rc, p, h2))
        grown.sort(key=lambda b: (-b[0], b[2]))
        beams = grown[:width * width]
    return out


def tape_generator_step(storage, goals, store, rng, samples=4):
    """``generator.train_generator_step`` built sequence by sequence on the
    autodiff tape and differentiated by ``Tape.backward``.

    The storage pools are looked up again for every sample, in the order
    the sampled sequences draw from ``rng``. Returns (gradients of every
    leaf, in the tape's leaf order: the predicate rows the GRU reads, then
    the ``gen.*`` parameters; mean loss), or (None, None).
    """
    from selprover import autodiff as ad
    from selprover.generator import nearest_real_predicate

    to_real = nearest_real_predicate(store)
    tape = ad.Tape(store)
    losses = []
    for goal in goals:
        for _ in range(samples):
            targets = []
            for layer in storage.layers:
                pool = [e for e in layer if e.goal_rel == goal]
                if not pool:
                    break
                pick = pool[int(rng.integers(len(pool)))]
                targets.append(int(to_real[pick.pred]))
            if not targets:
                continue
            h = _tape_start(tape, goal)
            prev, cur = goal, goal
            for t in targets:
                h = _tape_hidden(tape, h, prev, cur)
                losses.append(ad.cross_entropy_logits(_tape_logits(tape, h),
                                                      [t]))
                prev, cur = cur, t
    if not losses:
        return None, None
    loss = ad.mul(ad.sum_list(losses), 1.0 / len(losses))
    tape.backward(loss)
    return tape.gradients(), loss.item()
