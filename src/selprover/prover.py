"""Differentiable backward chaining over a knowledge-base view.

The search is the classic or/and recursion over template rules, written as
one self-recursive or-step closure inside ``prove_goal`` over the view, the
kernel tables, the config and the accounting: an or-step unifies a goal
against every fact and rule head in the view, and a rule that unifies
proves its body by or-steps one depth further down. Scores follow soft
unification: every concrete symbol pair contributes a Gaussian-kernel
similarity, a branch's score is the running minimum of its contributions,
and a goal's score is the maximum over completed branches.

Two things distinguish this prover from the plain formulation. First,
unification carries a score threshold: a branch whose running minimum falls
below it dies on the spot, and every unification that survives is recorded
in a high-quality buffer together with its recursion level. Second, or-steps
sweep only the view they are handed, which is how learned knowledge
selection plugs in; utilization counters track how many swept items actually
established a unification.

Every rule is a ``kb.Rule``: a template shape over predicate ids, whose
head ``h(X, Y)`` takes both goal arguments. So unifying a head with a goal
binds both and fails nowhere: the head's score is ``min(state score,
Kp[head, goal])``, and one gather of the predicate kernel table over the
view's rule heads is the whole head unification. Rules below the threshold
there are only counted as traversed. For a goal ``g(a0, a1)``, implies
proves ``body1(a0, a1)``, inverse ``body1(a1, a0)``, and chain
``body1(a0, Z)`` and then ``body2(z, a1)`` for each constant ``z`` its first
body binds. Top goals are ground and proofs stop at depth 2, so every
subgoal has at most one free argument, ``FREE``, and a ``ProofState``
carries the constant bound to it: no binding map is kept. At depth 0 a body
never runs, so a rule there is only counted and harvested.

An or-step is eager: it runs its facts, in view order, and then its rules
to one list of states, so all of its side effects happen inside the call and
the buffer lists items in the order their or-steps finish. A positive beam
keeps the stable top-``beam`` of that list. Fact states come first, so a
fact outside the stable top-``beam`` of the facts alone cannot make the cut:
every live fact is counted and buffered, in view order, but states are built
for those top facts only.

An or-step runs once per proof. Within one proof the view, the tables, the
goal relation and the excluded fact are fixed, so its states, counter
increments and buffer adds depend only on (predicate, arguments, depth,
incoming entry): the incoming score is the kernel value at that entry, or
1.0 when the entry is None. The first call with that key stores its states
and the ``traversed``/``established`` it added; a repeat adds the same
counts and returns the stored list. Its buffer adds are not repeated: each
would add an item already added in this proof with the same score and
level, which changes nothing. The counters and the buffer therefore see the
whole logical search, and only the wall time drops. The memo lives for one
proof, since a batch-wide one would hold every proof's lists at once.

Gradient handling: search runs on precomputed kernel tables (plain floats),
and each state remembers the single (kind, i, j) kernel entry that is its
current score bottleneck, ties broken toward the earliest contribution. The
training loss differentiates just those winning entries, which is the exact
subgradient of the max-min composition away from ties. The kernel
exp(-||u - v||^2) has the closed-form gradient -2K(u - v) in u, so no
autodiff graph is recorded: the loss returns dense gradients by name.

The training loss runs this search for its positives only, each with its
own fact masked. A sampled corruption masks nothing, so its score and
bottleneck entry come from ``scoring.BatchedEvaluator.proof`` over the
batch's tables: unbeamed, and with no harvest and no counts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import accel
from .autodiff import ParameterStore
from .config import RunConfig
from .kb import (SHAPE_CHAIN, SHAPE_IMPLIES, SHAPE_INVERSE, Atom, KBView,
                 Rule, Vocabulary)
from .pretrain import CONST_EMB, PRED_EMB, SLOT_EMB, _sample_negatives
from .scoring import ENTRY_CONST, ENTRY_PRED, BatchedEvaluator, kernel_tables

# a subgoal argument no constant is bound to yet
FREE = -1


@dataclass(frozen=True, slots=True)
class ProverConfig:
    max_depth: int = 2
    min_score: float = 0.1
    beam: int = 0


class ProofState(NamedTuple):
    """Running score, its bottleneck ``entry``, and the constant bound to the
    goal's free argument (``FREE`` when the goal is ground)."""

    score: float
    entry: tuple[int, int, int] | None
    bound: int


@dataclass(slots=True)
class HqEntry:
    score: float
    level: int
    goal_rel: int
    origin: str = "unify"


class HighQualityBuffer:
    """Knowledge items whose unification cleared the threshold in a proof of
    a training positive; ``training_loss`` scores corruptions from tables,
    which harvest nothing.

    Deduplicated by item id: score keeps the max, level keeps the min, and
    the goal relation (with its origin tag) follows the best score seen.
    """

    def __init__(self) -> None:
        self.items: dict[int, HqEntry] = {}

    def add(self, item_id: int, score: float, level: int, goal_rel: int,
            origin: str = "unify") -> None:
        cur = self.items.get(item_id)
        if cur is None:
            self.items[item_id] = HqEntry(score, level, goal_rel, origin)
            return
        if score > cur.score:
            cur.score = score
            cur.goal_rel = goal_rel
            cur.origin = origin
        if level < cur.level:
            cur.level = level

    def __len__(self) -> int:
        return len(self.items)

    def __contains__(self, item_id: int) -> bool:
        return item_id in self.items


@dataclass(slots=True)
class Counters:
    traversed: int = 0
    established: int = 0


@dataclass(slots=True)
class ProofResult:
    score: float
    state: ProofState | None
    n_proofs: int


def prove_goal(goal: Atom, view: KBView, store: ParameterStore,
               config: ProverConfig, hq: HighQualityBuffer | None = None,
               counters: Counters | None = None,
               tables: tuple[np.ndarray, np.ndarray] | None = None,
               exclude_fact: int = -1) -> ProofResult:
    """Best proof score of a ground goal over the view; 0.0 when none.

    ``exclude_fact`` names a parent fact id to mask from sweeps (a training
    positive proving itself). ``tables`` lets callers reuse precomputed
    kernel tables across goals; otherwise they are built from the store.
    """
    if not goal.is_ground:
        raise ValueError(f"prove_goal needs a ground goal, got {goal}")
    if config.max_depth > 2:
        # deeper goals can have two free arguments, which no state carries
        raise ValueError(
            f"prove_goal supports depth <= 2, got {config.max_depth}")
    if tables is None:
        tables = kernel_tables(store)
    Kp, Kc = tables
    if counters is None:
        counters = Counters()
    exclude = view.local_fact_index(exclude_fact) if exclude_fact >= 0 else -1
    max_depth, min_score, beam = (config.max_depth, config.min_score,
                                  config.beam)
    goal_rel = goal.pred
    parent = view.parent
    n_items = view.n_items
    # or-steps by (pred, a0, a1, depth, entry): the states and the counter
    # deltas
    memo: dict[tuple, tuple[list[ProofState], int, int]] = {}

    def or_step(pred: int, a0: int, a1: int, depth: int, state: ProofState
                ) -> list[ProofState]:
        """The states of goal ``pred(a0, a1)``, at most one argument
        ``FREE``, cut to the stable top-``beam`` under a beam; run once per
        key and proof."""
        key = (pred, a0, a1, depth, state.entry)
        hit = memo.get(key)
        if hit is not None:
            states, traversed, established = hit
            counters.traversed += traversed
            counters.established += established
            return states
        t0, e0 = counters.traversed, counters.established
        counters.traversed += n_items
        # facts in one vectorized sweep, then rules, each through its shape;
        # view order makes tie handling deterministic
        level = max_depth - depth + 1
        states = []
        if view.n_facts:
            psim = Kp[pred][view.pred]
            a1sim = Kc[a0][view.subj] if a0 != FREE else None
            a2sim = Kc[a1][view.obj] if a1 != FREE else None
            scores, which = accel.sweep_scores(state.score, psim, a1sim, a2sim,
                                               min_score, exclude)
            live = np.flatnonzero(scores >= 0.0)
            counters.established += len(live)
            if hq is not None:
                for fid, sc in zip(view.fact_ids[live].tolist(),
                                   scores[live].tolist()):
                    hq.add(fid, sc, level, goal_rel)
            if 0 < beam < len(live):
                # the beam cut below keeps the stable top-beam of this step
                # and fact states come first in it, so no fact outside the
                # stable top-beam of the facts alone can make that cut
                top = np.argsort(-scores[live], kind="stable")[:beam]
                live = np.sort(live[top])
            # one list per column: plain ints and floats, no numpy scalars
            for sc, w, p, s, o in zip(
                    scores[live].tolist(), which[live].tolist(),
                    view.pred[live].tolist(), view.subj[live].tolist(),
                    view.obj[live].tolist()):
                if w == 0:
                    entry = state.entry
                elif w == 1:
                    entry = (ENTRY_PRED, pred, p)
                elif w == 2:
                    entry = (ENTRY_CONST, a0, s)
                else:
                    entry = (ENTRY_CONST, a1, o)
                states.append(ProofState(sc, entry, s if a0 == FREE
                                         else o if a1 == FREE else FREE))
        # a head scores min(state score, Kp[head, goal]), so one gather
        # unifies every rule head; a rule below min_score is only traversed
        # (a NaN kernel passes and leaves the state's score)
        kp = Kp[view.rule_head, pred]
        for k in np.flatnonzero(~(kp < min_score)).tolist():
            rid = view.rule_ids[k]
            # a plain float, as fact states carry, so a state's score has one
            # type however the memo reached it
            kv = float(kp[k])
            if kv < state.score:
                st = ProofState(kv, (ENTRY_PRED, int(view.rule_head[k]), pred),
                                FREE)
            else:
                st = state
            if st.score < min_score:
                continue
            counters.established += 1
            if hq is not None:
                hq.add(parent.n_facts + rid, st.score, level, goal_rel)
            if depth <= 0:
                continue
            shape, _, b1, b2 = parent.rules[rid]
            if shape == SHAPE_IMPLIES:
                states += or_step(b1, a0, a1, depth - 1, st)
            elif shape == SHAPE_CHAIN:
                for mid in or_step(b1, a0, FREE, depth - 1, st):
                    states += or_step(b2, mid.bound, a1, depth - 1, mid)
            else:
                states += or_step(b1, a1, a0, depth - 1, st)
        if beam > 0:
            states = sorted(states, key=lambda s: -s.score)[:beam]
        memo[key] = (states, counters.traversed - t0,
                     counters.established - e0)
        return states

    states = or_step(goal.pred, *goal.args, max_depth,
                     ProofState(1.0, None, FREE))
    # the closure refers to itself; breaking that cycle frees the view and
    # tables it holds on return rather than at the next collection
    del or_step
    best = 0.0
    best_state: ProofState | None = None
    for st in states:
        if st.score > best:
            best = st.score
            best_state = st
    return ProofResult(best, best_state, len(states))


# ---------------------------------------------------------------------------
# rule templates
# ---------------------------------------------------------------------------


def build_templates(vocab: Vocabulary, store: ParameterStore, cfg: RunConfig,
                    rng: np.random.Generator) -> list[Rule]:
    """Parameterized rule skeletons with fresh trainable head/body slots.

    Three shapes: same-direction implication, argument-swapped implication,
    and a two-hop chain. Slot embeddings are appended to the store under
    their own parameter, one row per slot of ``template_rules``, scaled to
    the pretrained predicate spread. A store that already holds slots is
    an error, raised before anything is added to it.
    """
    if SLOT_EMB in store:
        raise ValueError("templates already built for this store")
    rules = template_rules(vocab, cfg)
    scale = float(np.std(store[PRED_EMB])) if store[PRED_EMB].size else 0.1
    size = (slot_count(rules), cfg.embedding_dim)
    store.add(SLOT_EMB, rng.normal(0.0, max(scale, 1e-3), size=size))
    return rules


def template_rules(vocab: Vocabulary, cfg: RunConfig) -> list[Rule]:
    """Template skeletons alone, deterministic given the configured counts.

    Slot ids count up from ``vocab.n_predicates``, one per head and body
    predicate in rule order. Touches neither the vocabulary, which names
    slot ``k`` ``#k``, nor any parameter; use it to reconstruct the rule
    structure around a saved parameter store, whose slot embeddings were
    laid out in this same order.
    """
    slot = itertools.count(vocab.n_predicates).__next__
    # arguments evaluate left to right: head, then body1, then body2
    rules = [Rule(SHAPE_IMPLIES, slot(), slot())
             for _ in range(cfg.templates_implies)]
    rules += [Rule(SHAPE_INVERSE, slot(), slot())
              for _ in range(cfg.templates_inverse)]
    rules += [Rule(SHAPE_CHAIN, slot(), slot(), slot())
              for _ in range(cfg.templates_chain)]
    return rules


def slot_count(rules: list[Rule]) -> int:
    """Slots the template rules use: two a rule, three a chain."""
    return sum(3 if r.body2 >= 0 else 2 for r in rules)


# ---------------------------------------------------------------------------
# training loss
# ---------------------------------------------------------------------------


def _entry_rows(entry: tuple[int, int, int], n_real: int
                ) -> tuple[tuple[str, int], tuple[str, int]]:
    """(parameter name, row) of both operands of a kernel entry.

    Predicate ids at or past ``n_real`` are template slots, stored in their
    own parameter.
    """
    kind, i, j = entry
    if kind == ENTRY_CONST:
        return (CONST_EMB, i), (CONST_EMB, j)
    return tuple((PRED_EMB, p) if p < n_real else (SLOT_EMB, p - n_real)
                 for p in (i, j))


def training_loss(positives: list[Atom], view: KBView, store: ParameterStore,
                  cfg: RunConfig, hq: HighQualityBuffer | None,
                  counters: Counters, known_facts: frozenset,
                  rng: np.random.Generator,
                  tables: tuple[np.ndarray, np.ndarray] | None = None
                  ) -> tuple[float, dict[str, np.ndarray], dict]:
    """Cross-entropy over proof scores of positives and sampled corruptions.

    Each positive is proved by ``prove_goal`` with its own fact masked out
    of the view, and is followed by its ``prover_negatives`` corruptions,
    all drawn by one ``pretrain._sample_negatives`` call; a draw that finds
    no unknown triple is dropped. A corruption masks nothing, so one
    ``scoring.BatchedEvaluator`` over the view and ``tables`` scores all of
    them, unbeamed, with ``proof``. Each score is clamped to [c, 1 - c]
    (c = ``score_clamp``), and the loss sums -log s over positives and
    -log clip(1 - s, c, 1) over negatives. Returns (loss, gradients, stats).
    ``stats`` holds the mean proof score of the positives and of the
    negatives, and how many of each were scored (``goals_*``) and proved,
    that is scored above 0 (``proved_*``). The gradients are dense arrays
    keyed by parameter name, in the order proofs first touch them; the
    caller owns the clip/update sequence. The positives' unifications that
    clear the threshold go to ``hq``, and their searches to ``counters``;
    with ``hq=None`` nothing is harvested and ``counters`` still count.
    Corruptions touch neither.

    A proof's score is recomputed from its bottleneck entry's rows u, v as
    K = exp(-||u - v||^2), whose gradient in u is -2K(u - v) and in v its
    negation. A clamp that is active passes no gradient, and neither does
    a proof without an entry (none found, or every factor exactly 1).
    """
    pconf = ProverConfig(max_depth=cfg.max_depth, min_score=cfg.min_score,
                         beam=cfg.beam)
    if tables is None:
        tables = kernel_tables(store)
    scorer = BatchedEvaluator(view, store, cfg.max_depth, cfg.min_score,
                              tables=tables)
    n_real = store[PRED_EMB].shape[0]
    n_const = store[CONST_EMB].shape[0]
    c = cfg.score_clamp
    terms: list[float] = []
    grads: dict[str, np.ndarray] = {}
    pos_scores: list[float] = []
    neg_scores: list[float] = []
    base = view.parent

    def grad(name: str) -> np.ndarray:
        g = grads.get(name)
        if g is None:
            g = grads[name] = np.zeros_like(store[name])
        return g

    def add_term(K: float, entry: tuple[int, int, int] | None,
                 negative: bool) -> None:
        if entry is not None:
            (nu, iu), (nv, iv) = _entry_rows(entry, n_real)
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
        # keys follow proof order even where the clamp passes nothing, since
        # the clip norm sums in key order
        gu, gv = grad(nu), grad(nv)
        # inside the clamp s = K, so a negative's clip of 1 - s is inactive
        if c < K < 1.0 - c:
            row = -2.0 * (dK * K * d)
            gu[iu] += row
            gv[iv] -= row

    # proving draws nothing from rng, so drawing every corruption up front
    # gives each goal the draws it would take between its own proofs
    k = cfg.prover_negatives
    negs, kept = _sample_negatives(
        rng, np.repeat([g.as_triple() for g in positives], k, axis=0),
        n_const, known_facts)
    for i, goal in enumerate(positives):
        res_p = prove_goal(goal, view, store, pconf, hq, counters, tables,
                           exclude_fact=base.fact_id(goal))
        pos_scores.append(res_p.score)
        add_term(res_p.score,
                 res_p.state.entry if res_p.state is not None else None,
                 negative=False)
        own = slice(i * k, (i + 1) * k)
        for rel, subj, obj in negs[own][kept[own]].tolist():
            score, entry = scorer.proof(rel, subj, obj)
            neg_scores.append(score)
            add_term(score, entry, negative=True)
    stats = {
        "mean_pos": float(np.mean(pos_scores)) if pos_scores else 0.0,
        "mean_neg": float(np.mean(neg_scores)) if neg_scores else 0.0,
        "goals_pos": len(pos_scores),
        "proved_pos": sum(1 for s in pos_scores if s > 0.0),
        "goals_neg": len(neg_scores),
        "proved_neg": sum(1 for s in neg_scores if s > 0.0),
    }
    return float(np.sum(terms)), grads, stats
