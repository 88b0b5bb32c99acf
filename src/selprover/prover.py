"""Differentiable backward chaining over a knowledge-base view.

The search is the classic or/and recursion: ``or_step`` unifies a goal
against every fact and rule head in the view, ``and_step`` threads the
resulting states through rule bodies at depth-1. Scores follow soft
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

Gradient handling: search runs on precomputed kernel tables (plain floats),
and each state remembers the single (kind, i, j) kernel entry that is its
current score bottleneck, ties broken toward the earliest contribution. The
training loss differentiates just those winning entries, which is the exact
subgradient of the max-min composition away from ties. The kernel
exp(-||u - v||^2) has the closed-form gradient -2K(u - v) in u, so no
autodiff graph is recorded: the loss returns dense gradients by name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import accel
from .autodiff import ParameterStore
from .config import RunConfig
from .kb import Atom, KBView, Rule, Vocabulary, is_var, mkvar
from .pretrain import CONST_EMB, PRED_EMB, SLOT_EMB, _sample_negative

ENTRY_PRED = 0
ENTRY_CONST = 1

SHAPE_IMPLIES = "implies"
SHAPE_INVERSE = "inverse"
SHAPE_CHAIN = "chain"


@dataclass(frozen=True, slots=True)
class ProverConfig:
    max_depth: int = 2
    min_score: float = 0.1
    beam: int = 0

    @classmethod
    def from_run(cls, cfg: RunConfig) -> "ProverConfig":
        return cls(max_depth=cfg.max_depth, min_score=cfg.min_score,
                   beam=cfg.beam)


@dataclass(frozen=True, slots=True)
class ProofState:
    """Substitutions plus running score; ``entry`` is the score bottleneck."""

    subst: dict
    score: float
    entry: tuple[int, int, int] | None


@dataclass(slots=True)
class HqEntry:
    score: float
    level: int
    goal_rel: int
    origin: str = "unify"


class HighQualityBuffer:
    """Knowledge items whose unification cleared the threshold.

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


# ---------------------------------------------------------------------------
# kernel tables
# ---------------------------------------------------------------------------


def pred_matrix(store: ParameterStore) -> np.ndarray:
    """All predicate embeddings, trainable template slots appended."""
    if SLOT_EMB in store:
        return np.vstack([store[PRED_EMB], store[SLOT_EMB]])
    return store[PRED_EMB]


def kernel_tables(store: ParameterStore) -> tuple[np.ndarray, np.ndarray]:
    E = pred_matrix(store)
    return accel.kernel_matrix(E, E), accel.kernel_matrix(store[CONST_EMB],
                                                          store[CONST_EMB])


# ---------------------------------------------------------------------------
# substitutions
# ---------------------------------------------------------------------------


def resolve(code: int, subst: dict) -> int:
    while is_var(code):
        nxt = subst.get(code)
        if nxt is None:
            return code
        code = nxt
    return code


def substitute(atom: Atom, subst: dict) -> Atom:
    if not subst:
        return atom
    a0 = resolve(atom.args[0], subst)
    a1 = resolve(atom.args[1], subst)
    if (a0, a1) == atom.args:
        return atom
    return Atom(atom.pred, (a0, a1))


class _Ctx:
    """Per-proof search context: view, kernel tables, config, accounting."""

    __slots__ = ("view", "Kp", "Kc", "config", "hq", "counters", "goal_rel",
                 "exclude", "_next_var")

    def __init__(self, view: KBView, Kp: np.ndarray, Kc: np.ndarray,
                 config: ProverConfig, hq: HighQualityBuffer | None,
                 counters: Counters, goal_rel: int, exclude: int):
        self.view = view
        self.Kp = Kp
        self.Kc = Kc
        self.config = config
        self.hq = hq
        self.counters = counters
        self.goal_rel = goal_rel
        self.exclude = exclude
        self._next_var = 1000

    def fresh_vars(self, rule: Rule) -> dict:
        mapping = {}
        for v in rule.variables():
            mapping[v] = mkvar(self._next_var)
            self._next_var += 1
        return mapping


def _rename(atom: Atom, mapping: dict) -> Atom:
    a0, a1 = atom.args
    return Atom(atom.pred,
                (mapping.get(a0, a0) if is_var(a0) else a0,
                 mapping.get(a1, a1) if is_var(a1) else a1))


def _unify_rule_head(head: Atom, goal: Atom, state: ProofState, ctx: _Ctx,
                     item_id: int, level: int) -> ProofState | None:
    """Soft-unify a standardized-apart rule head with a goal atom.

    The goal's bound variables were substituted away by the caller, so its
    arguments are constants or unbound variables. Head variables are fresh.
    Within this one unification, re-binding an already-bound variable to a
    different constant is a hard failure; distinct constants meeting at the
    same position compare through the constant kernel.
    """
    score = state.score
    entry = state.entry
    kv = ctx.Kp[head.pred, goal.pred]
    if kv < score:
        score = kv
        entry = (ENTRY_PRED, head.pred, goal.pred)
    new_bind: dict = {}

    for h_raw, g_raw in zip(head.args, goal.args):
        h = resolve(h_raw, new_bind)
        g = resolve(g_raw, new_bind)
        if is_var(h):
            if h != g:
                new_bind[h] = g
            continue
        if is_var(g):
            new_bind[g] = h
            continue
        if h == g:
            continue
        # both ground and different: a variable position got here by being
        # bound earlier in this unification, and re-binding it to another
        # constant is a hard failure; plain constant pairs compare softly
        if is_var(h_raw) or is_var(g_raw):
            return None
        kv = ctx.Kc[h, g]
        if kv < score:
            score = kv
            entry = (ENTRY_CONST, h, g)
    if score < ctx.config.min_score:
        return None
    ctx.counters.established += 1
    if ctx.hq is not None:
        ctx.hq.add(item_id, score, level, ctx.goal_rel)
    subst = state.subst
    if new_bind:
        subst = {**subst, **new_bind}
    return ProofState(subst, score, entry)


def or_step(goal: Atom, depth: int, state: ProofState, ctx: _Ctx
            ) -> Iterator[ProofState]:
    """Unify the goal against every item in the view; recurse into bodies.

    Facts are swept in one vectorized pass; rules go through the scalar
    path. Enumeration order is the view's item order, which makes tie
    handling deterministic. A positive beam materializes and keeps only the
    highest-scoring states of this invocation (stable on ties).
    """
    view = ctx.view
    ctx.counters.traversed += view.n_items
    it = _or_states(goal, depth, state, ctx)
    beam = ctx.config.beam
    if beam > 0:
        states = list(it)
        states.sort(key=lambda s: -s.score)  # stable: ties keep stream order
        it = iter(states[:beam])
    yield from it


def _or_states(goal: Atom, depth: int, state: ProofState, ctx: _Ctx
               ) -> Iterator[ProofState]:
    view = ctx.view
    cfg = ctx.config
    level = cfg.max_depth - depth + 1
    a0, a1 = goal.args
    if view.n_facts:
        psim = ctx.Kp[goal.pred][view.pred]
        a1sim = ctx.Kc[a0][view.subj] if not is_var(a0) else None
        a2sim = ctx.Kc[a1][view.obj] if not is_var(a1) else None
        scores, which = accel.sweep_scores(state.score, psim, a1sim, a2sim,
                                           cfg.min_score, ctx.exclude)
        alive = scores >= 0.0
        repeated = is_var(a0) and a0 == a1
        if repeated:
            # same variable in both positions only matches loop facts
            alive &= view.subj == view.obj
        for f in np.nonzero(alive)[0]:
            f = int(f)
            sc = float(scores[f])
            w = int(which[f])
            if w == 0:
                entry = state.entry
            elif w == 1:
                entry = (ENTRY_PRED, goal.pred, int(view.pred[f]))
            elif w == 2:
                entry = (ENTRY_CONST, a0, int(view.subj[f]))
            else:
                entry = (ENTRY_CONST, a1, int(view.obj[f]))
            subst = state.subst
            bind: dict = {}
            if is_var(a0):
                bind[a0] = int(view.subj[f])
            if is_var(a1) and not repeated:
                bind[a1] = int(view.obj[f])
            if bind:
                subst = {**subst, **bind}
            item_id = int(view.fact_ids[f])
            ctx.counters.established += 1
            if ctx.hq is not None:
                ctx.hq.add(item_id, sc, level, ctx.goal_rel)
            yield ProofState(subst, sc, entry)
    for item_id, rule in view.iter_rules():
        mapping = ctx.fresh_vars(rule)
        head = _rename(rule.head, mapping)
        st2 = _unify_rule_head(head, goal, state, ctx, item_id, level)
        if st2 is None:
            continue
        if not rule.body:
            yield st2
        else:
            body = tuple(_rename(b, mapping) for b in rule.body)
            yield from and_step(body, depth, st2, ctx)


def and_step(body: tuple[Atom, ...], depth: int, state: ProofState, ctx: _Ctx
             ) -> Iterator[ProofState]:
    if not body:
        yield state
        return
    if depth <= 0:
        return
    first = substitute(body[0], state.subst)
    rest = body[1:]
    for s2 in or_step(first, depth - 1, state, ctx):
        yield from and_step(rest, depth, s2, ctx)


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
    if tables is None:
        tables = kernel_tables(store)
    Kp, Kc = tables
    if counters is None:
        counters = Counters()
    exclude = view.local_fact_index(exclude_fact) if exclude_fact >= 0 else -1
    ctx = _Ctx(view, Kp, Kc, config, hq, counters, goal.pred, exclude)
    best = 0.0
    best_state: ProofState | None = None
    n = 0
    for st in or_step(goal, config.max_depth, ProofState({}, 1.0, None), ctx):
        n += 1
        if st.score > best:
            best = st.score
            best_state = st
    return ProofResult(best, best_state, n)


# ---------------------------------------------------------------------------
# rule templates
# ---------------------------------------------------------------------------


def build_templates(vocab: Vocabulary, store: ParameterStore, cfg: RunConfig,
                    rng: np.random.Generator) -> list[Rule]:
    """Parameterized rule skeletons with fresh trainable head/body slots.

    Three shapes: same-direction implication, argument-swapped implication,
    and a two-hop chain. Slot embeddings are appended to the store under
    their own parameter, scaled to the pretrained predicate spread.
    Either the store or the vocabulary already holding slots is an error,
    raised before anything is added to the store.
    """
    if SLOT_EMB in store:
        raise ValueError("templates already built for this store")
    rules = template_rules(vocab, cfg)
    n_slots = sum(len(r.slots) for r in rules)
    scale = float(np.std(store[PRED_EMB])) if store[PRED_EMB].size else 0.1
    store.add(SLOT_EMB, rng.normal(0.0, max(scale, 1e-3),
                                   size=(n_slots, cfg.embedding_dim)))
    return rules


def template_rules(vocab: Vocabulary, cfg: RunConfig) -> list[Rule]:
    """Template skeletons alone, deterministic given the configured counts.

    Interns the slot predicate names but touches no parameters; use it to
    reconstruct the rule structure around a saved parameter store, whose
    slot embeddings were laid out in this same order.
    """
    X, Y, Z = mkvar(0), mkvar(1), mkvar(2)
    counts = ((SHAPE_IMPLIES, cfg.templates_implies),
              (SHAPE_INVERSE, cfg.templates_inverse),
              (SHAPE_CHAIN, cfg.templates_chain))
    rules: list[Rule] = []
    if any(n.startswith("#") for n in vocab.predicate_names()):
        raise ValueError("vocabulary already contains template slots")
    n_real = vocab.n_predicates
    next_slot = 0

    def slot() -> int:
        nonlocal next_slot
        pid = vocab.intern_predicate(f"#{next_slot}")
        assert pid == n_real + next_slot
        next_slot += 1
        return pid

    for shape, count in counts:
        for _ in range(count):
            if shape == SHAPE_IMPLIES:
                h, b = slot(), slot()
                rules.append(Rule(head=Atom(h, (X, Y)),
                                  body=(Atom(b, (X, Y)),),
                                  slots=(h, b), shape=shape))
            elif shape == SHAPE_INVERSE:
                h, b = slot(), slot()
                rules.append(Rule(head=Atom(h, (X, Y)),
                                  body=(Atom(b, (Y, X)),),
                                  slots=(h, b), shape=shape))
            else:
                h, b1, b2 = slot(), slot(), slot()
                rules.append(Rule(head=Atom(h, (X, Y)),
                                  body=(Atom(b1, (X, Z)), Atom(b2, (Z, Y))),
                                  slots=(h, b1, b2), shape=shape))
    return rules


def classify_rule(rule: Rule) -> str | None:
    """Structural shape of a rule, or None if it fits no template family."""
    h = rule.head
    if not (is_var(h.args[0]) and is_var(h.args[1]) and h.args[0] != h.args[1]):
        return None
    X, Y = h.args
    if len(rule.body) == 1:
        b = rule.body[0]
        if b.args == (X, Y):
            return SHAPE_IMPLIES
        if b.args == (Y, X):
            return SHAPE_INVERSE
        return None
    if len(rule.body) == 2:
        b1, b2 = rule.body
        z1 = b1.args[1]
        if (b1.args[0] == X and is_var(z1) and z1 not in (X, Y)
                and b2.args == (z1, Y)):
            return SHAPE_CHAIN
        return None
    return None


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
                  cfg: RunConfig, hq: HighQualityBuffer, counters: Counters,
                  known_facts: frozenset, rng: np.random.Generator,
                  tables: tuple[np.ndarray, np.ndarray] | None = None
                  ) -> tuple[float, dict[str, np.ndarray], dict]:
    """Cross-entropy over proof scores of positives and sampled corruptions.

    Each positive is masked out of the view for its own proof only. A
    corruption draw that finds no unknown triple is dropped. Each score is
    clamped to [c, 1 - c] (c = ``score_clamp``), and the loss sums -log s
    over positives and -log clip(1 - s, c, 1) over negatives. Returns
    (loss, gradients, stats). The gradients are dense arrays keyed by
    parameter name, in the order proofs first touch them; the caller owns
    the clip/update sequence.

    A proof's score is recomputed from its bottleneck entry's rows u, v as
    K = exp(-||u - v||^2), whose gradient in u is -2K(u - v) and in v its
    negation. A clamp that is active passes no gradient, and neither does
    a proof without an entry (none found, or every factor exactly 1).
    """
    pconf = ProverConfig.from_run(cfg)
    if tables is None:
        tables = kernel_tables(store)
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

    def add_term(result: ProofResult, negative: bool) -> None:
        K = result.score
        entry = result.state.entry if result.state is not None else None
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

    for goal in positives:
        res_p = prove_goal(goal, view, store, pconf, hq, counters, tables,
                           exclude_fact=base.fact_id(goal))
        pos_scores.append(res_p.score)
        add_term(res_p, negative=False)
        for _ in range(cfg.prover_negatives):
            cand = _sample_negative(rng, goal.as_triple(), n_const, known_facts)
            if cand is None:
                continue
            neg = Atom(cand[0], (cand[1], cand[2]))
            res_n = prove_goal(neg, view, store, pconf, hq, counters, tables)
            neg_scores.append(res_n.score)
            add_term(res_n, negative=True)
    stats = {
        "mean_pos": float(np.mean(pos_scores)) if pos_scores else 0.0,
        "mean_neg": float(np.mean(neg_scores)) if neg_scores else 0.0,
    }
    return float(np.sum(terms)), grads, stats
