"""Alternating training loop: select knowledge, prove, harvest, refit.

Each iteration runs, in order: per-batch predicate generation and KB
selection, a prover pass over the goal batches (embedding updates plus
high-quality harvest), nearest-neighbor completion of the harvest while the
relation storage sits below its capacity, the storage update, and finally
the generator's teacher-forced epochs. The generator never receives a
gradient before the prover pass has finished; the storage is the only
channel between the two phases.

An iteration trains the incoming store and storage in place. A failure
inside it propagates and ends the run, so no half-trained state is ever
carried into the next iteration or written as a checkpoint.
"""

from __future__ import annotations

import csv
import logging
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .autodiff import ParameterStore, adam_step, clip_gradients
from .config import RunConfig
from .evaluate import compute_mrr_hits, evaluate_ranking
from .generator import (RelationStorage, generate_predicates, init_generator,
                        nearest_real_predicate, nns_complete,
                        train_generator_step, update_relation_storage)
from .kb import Atom, KBView, KnowledgeBase
from .pretrain import PRED_EMB, pretrain_embeddings
from .prover import (Counters, HighQualityBuffer, build_templates,
                     kernel_tables, training_loss)
from .scoring import BatchedEvaluator

log = logging.getLogger(__name__)

PROOF_COUNTS = ("goals_pos", "proved_pos", "goals_neg", "proved_neg")
METRIC_COLUMNS = ("iteration", "prover_loss", "generator_loss", "valid_mrr",
                  "attp_ms", "utilization", "traversed", "established",
                  *PROOF_COUNTS)


@dataclass
class TrainState:
    iteration: int
    store: ParameterStore
    storage: RelationStorage
    metrics_log: list[dict] = field(default_factory=list)


def storage_capacities(cfg: RunConfig) -> tuple[int, ...]:
    """Per-layer caps: each coefficient scales the previous layer's cap."""
    caps = []
    prev = cfg.batch_goals
    for coeff in cfg.ep_coefficients:
        prev = coeff * prev
        caps.append(prev)
    return tuple(caps)


def select_kbs(kb: KnowledgeBase, logic_predicates: dict[int, float],
               proportion: float, store: ParameterStore, goal_rel: int,
               tables: tuple[np.ndarray, np.ndarray]) -> KBView:
    """Restrict the KB to items headed by a generated predicate.

    Template rules participate through the real predicate nearest their head
    slot. When more items match than the cap allows, items with the highest
    head generation score survive; ties break by kernel similarity of the
    item's own head to the goal relation, read from the predicate table of
    ``tables = kernel_tables(store)``, then by item id. Below the cap
    nothing is padded in.
    """
    if not 0.0 < proportion <= 1.0:
        raise ValueError(f"proportion must be in (0, 1], got {proportion}")
    if not logic_predicates:
        return KBView(kb, np.empty(0, dtype=np.int64), ())
    cap = math.ceil(proportion * kb.n_items)
    to_real = nearest_real_predicate(store)
    gen_score = np.full(to_real.shape[0], -1.0)
    for p, s in logic_predicates.items():
        gen_score[p] = s
    # one row per item id: facts, then rules
    head = np.concatenate([kb.fact_pred, kb.rule_head_pred])
    score = gen_score[to_real[head]]
    ids = np.flatnonzero(score >= 0.0)
    if len(ids) > cap:
        sim = tables[0][head[ids], goal_rel]
        ids = np.sort(ids[np.lexsort((ids, -sim, -score[ids]))[:cap]])
    split = np.searchsorted(ids, kb.n_facts)
    return KBView(kb, ids[:split], tuple((ids[split:] - kb.n_facts).tolist()))


def build_goal_batches(facts: list[Atom], cfg: RunConfig,
                       rng: np.random.Generator) -> list[tuple[int, list[Atom]]]:
    """Single-relation goal batches in shuffled order.

    Selection works per goal relation, so a batch never mixes relations;
    rare relations still get their own (short) batches.
    """
    by_rel: dict[int, list[Atom]] = {}
    for f in facts:
        by_rel.setdefault(f.pred, []).append(f)
    batches: list[tuple[int, list[Atom]]] = []
    for rel in sorted(by_rel):
        group = by_rel[rel]
        perm = rng.permutation(len(group))
        for start in range(0, len(group), cfg.batch_goals):
            batches.append(
                (rel, [group[i] for i in perm[start:start + cfg.batch_goals]]))
    order = rng.permutation(len(batches))
    batches = [batches[i] for i in order]
    if cfg.batches_per_iteration > 0:
        batches = batches[:cfg.batches_per_iteration]
    return batches


def em_iteration(state: TrainState, kb: KnowledgeBase,
                 batches: list[tuple[int, list[Atom]]], cfg: RunConfig,
                 rng: np.random.Generator, known: frozenset,
                 valid_eval=None) -> TrainState:
    """One full iteration, trained in place on ``state.store``/``state.storage``.

    Returns the state advanced by one iteration, its metrics row appended.
    """
    store, storage = state.store, state.storage
    # only the storage update reads the harvest, and full-KB runs skip it
    hq = None if cfg.baseline_full_kb else HighQualityBuffer()
    counters = Counters()
    proofs = dict.fromkeys(PROOF_COUNTS, 0)
    prover_losses: list[float] = []
    steps_before = store.step_count
    t0 = time.perf_counter()
    for rel, goals in batches:
        tables = kernel_tables(store)
        if cfg.baseline_full_kb:
            view = kb.full_view()
        else:
            lp = generate_predicates(rel, store, cfg.gen_width,
                                     cfg.storage_layers)
            view = select_kbs(kb, lp, cfg.proportion, store, rel, tables)
        loss, grads, stats = training_loss(goals, view, store, cfg, hq,
                                           counters, known, rng, tables)
        for key in PROOF_COUNTS:
            proofs[key] += stats[key]
        clip_gradients(grads, cfg.grad_clip)
        adam_step(store, grads, cfg.prover_lr)
        prover_losses.append(loss / max(1, len(goals)))
    attp_ms = (time.perf_counter() - t0) * 1000.0
    # the m-step must not start until every e-step update has landed
    assert store.step_count == steps_before + len(batches)

    gen_losses: list[float] = []
    if not cfg.baseline_full_kb:
        nns_complete(hq, kb, store, sum(storage.capacities) - storage.total())
        update_relation_storage(storage, hq, kb)
        goal_rels = storage.goal_relations()
        for _ in range(cfg.gen_epochs):
            # the m-step trains the generator alone: its gradients leave the
            # predicate rows the GRU reads untouched
            grads, gloss = train_generator_step(storage, goal_rels, store,
                                                rng, cfg.gen_samples)
            if grads is None:
                break
            clip_gradients(grads, cfg.grad_clip)
            adam_step(store, grads, cfg.gen_lr)
            gen_losses.append(gloss)

    row = {
        "prover_loss": float(np.mean(prover_losses)) if prover_losses
                       else float("nan"),
        "generator_loss": float(np.mean(gen_losses)) if gen_losses
                          else float("nan"),
        "attp_ms": attp_ms,
        "utilization": (counters.established / counters.traversed
                        if counters.traversed else float("nan")),
        "traversed": counters.traversed,
        "established": counters.established,
        **proofs,
        "valid_mrr": (float(valid_eval(store)) if valid_eval is not None
                      else float("nan")),
        "iteration": state.iteration + 1,
    }
    return TrainState(state.iteration + 1, store, storage,
                      state.metrics_log + [row])


def write_metrics_csv(path, rows: list[dict]) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(METRIC_COLUMNS)
        for row in rows:
            writer.writerow([repr(row[c]) if isinstance(row[c], float)
                             else row[c] for c in METRIC_COLUMNS])


def save_checkpoint(state: TrainState, kb: KnowledgeBase, out_dir) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    state.store.save(out / "store.npz")
    (out / "storage.txt").write_text(state.storage.dump(kb.vocab))
    write_metrics_csv(out / "metrics.csv", state.metrics_log)


def make_valid_eval(kb: KnowledgeBase, facts: list[Atom], known: frozenset,
                    cfg: RunConfig):
    """Filtered-MRR probe over a fixed validation subsample."""
    if not facts:
        return None
    if 0 < cfg.valid_subsample < len(facts):
        pick_rng = np.random.default_rng(cfg.seed + 101)
        idx = sorted(pick_rng.choice(len(facts), size=cfg.valid_subsample,
                                     replace=False))
        facts = [facts[i] for i in idx]
    view = kb.full_view()

    def valid_eval(store: ParameterStore) -> float:
        scorer = BatchedEvaluator(view, store, cfg.max_depth, cfg.min_score)
        return compute_mrr_hits(evaluate_ranking(facts, scorer, known))["mrr"]

    return valid_eval


def initialize(cfg: RunConfig, vocab, train_facts: list[Atom],
               rng: np.random.Generator) -> tuple[KnowledgeBase, ParameterStore]:
    """Pretrained embeddings, rule templates, and a fresh generator."""
    store, _ = pretrain_embeddings(train_facts, vocab, cfg, rng)
    templates = build_templates(vocab, store, cfg, rng)
    kb = KnowledgeBase(vocab, train_facts, templates)
    init_generator(store, store[PRED_EMB].shape[0], cfg.embedding_dim, rng)
    return kb, store


def run_training(cfg: RunConfig, splits, out_dir, valid_eval=None) -> TrainState:
    """Full training run with early stopping and best-validation checkpoint.

    ``splits`` carries ``vocab`` and the ``train``/``valid``/``test`` fact
    lists. Metrics land in ``out_dir/metrics.csv`` after every iteration;
    the best and final states land under ``out_dir/checkpoints/``, and best
    is the final state when no iteration recorded a validation MRR. An
    explicit ``valid_eval`` (store -> MRR) overrides the built-in probe.
    """
    cfg.validate()
    out = Path(out_dir)
    rng = np.random.default_rng(cfg.seed)
    kb, store = initialize(cfg, splits.vocab, splits.train, rng)
    known = frozenset(f.as_triple() for part in
                      (splits.train, splits.valid, splits.test) for f in part)
    state = TrainState(0, store, RelationStorage(storage_capacities(cfg)))
    if valid_eval is None:
        valid_eval = make_valid_eval(kb, splits.valid, known, cfg)

    best_mrr = -math.inf
    since_best = 0
    for _ in range(cfg.iterations):
        batches = build_goal_batches(splits.train, cfg, rng)
        state = em_iteration(state, kb, batches, cfg, rng, known, valid_eval)
        write_metrics_csv(out / "metrics.csv", state.metrics_log)
        mrr = state.metrics_log[-1]["valid_mrr"]
        if not math.isnan(mrr):
            if mrr > best_mrr:
                best_mrr = mrr
                since_best = 0
                save_checkpoint(state, kb, out / "checkpoints" / "best")
            else:
                since_best += 1
                if since_best > cfg.patience:
                    log.info("early stop at iteration %d (best MRR %.4f)",
                             state.iteration, best_mrr)
                    break
    write_metrics_csv(out / "metrics.csv", state.metrics_log)
    save_checkpoint(state, kb, out / "checkpoints" / "final")
    if best_mrr == -math.inf:
        save_checkpoint(state, kb, out / "checkpoints" / "best")
    return state
