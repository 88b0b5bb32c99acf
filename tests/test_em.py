import copy
import csv
import dataclasses
import math
import types

import numpy as np
import pytest

from selprover import em
from selprover.autodiff import ParameterStore, clip_gradients
from selprover.config import RunConfig
from selprover.em import (METRIC_COLUMNS, TrainState, build_goal_batches,
                          em_iteration, initialize, run_training, select_kbs,
                          storage_capacities)
from selprover.generator import (RelationStorage, nearest_real_predicate,
                                 parse_storage_lines)
from selprover.kb import (SHAPE_IMPLIES, SHAPE_INVERSE, Atom, KnowledgeBase,
                          Rule, Vocabulary)
from selprover.pretrain import CONST_EMB, PRED_EMB, SLOT_EMB
from selprover.prover import HighQualityBuffer, kernel_tables, training_loss

from oracles import select_kbs_reference, tape_generator_step


def tiny_cfg(**over):
    # beam + threshold keep the untrained-embedding search tree small
    base = dict(dataset="tiny", seed=11, embedding_dim=4,
                pretrain_epochs=5, pretrain_batch=16, pretrain_negatives=2,
                templates_implies=2, templates_inverse=2, templates_chain=2,
                batch_goals=8, prover_negatives=2, gen_width=3, gen_epochs=2,
                gen_samples=2, iterations=2, patience=1,
                proportion=0.5, valid_subsample=0, beam=10, min_score=0.2)
    base.update(over)
    return RunConfig(**base)


def tiny_splits():
    """Hand-built chain family: parent, its inverse, and the two-hop closure."""
    vocab = Vocabulary()
    parent = vocab.intern_predicate("parent")
    child = vocab.intern_predicate("child")
    grand = vocab.intern_predicate("grand")
    for c in "abcdefgh":
        vocab.intern_constant(c)
    pairs = [(i, i + 1) for i in range(7)]
    facts = ([Atom(parent, p) for p in pairs]
             + [Atom(child, (b, a)) for a, b in pairs]
             + [Atom(grand, (i, i + 2)) for i in range(6)])
    valid = [facts[16], facts[9]]     # grand(c,e), child(d,c)
    test = [facts[18], facts[6]]      # grand(e,g), parent(g,h)
    held = {f.as_triple() for f in valid + test}
    train = [f for f in facts if f.as_triple() not in held]
    return types.SimpleNamespace(vocab=vocab, train=train, valid=valid,
                                 test=test)


def flat_kb(n_preds, n_consts, facts, rules=()):
    vocab = Vocabulary()
    for p in range(n_preds):
        vocab.intern_predicate(f"p{p}")
    for c in range(n_consts):
        vocab.intern_constant(f"c{c}")
    return KnowledgeBase(vocab, [Atom(p, (s, o)) for p, s, o in facts],
                         list(rules))


def flat_store(Ep, Ec, slots=None):
    store = ParameterStore()
    store.add(PRED_EMB, np.asarray(Ep, dtype=np.float64))
    store.add(CONST_EMB, np.asarray(Ec, dtype=np.float64))
    if slots is not None:
        store.add(SLOT_EMB, np.asarray(slots, dtype=np.float64))
    return store


def snapshot(store):
    return {k: v.copy() for k, v in store.params.items()}


def unchanged(store, snap):
    return (set(store.params) == set(snap)
            and all(np.array_equal(store.params[k], snap[k]) for k in snap))


# --- capacities and selection ---------------------------------------------


def test_storage_capacities_compound():
    assert storage_capacities(tiny_cfg(batch_goals=1)) == (4, 8, 16)
    assert storage_capacities(tiny_cfg(batch_goals=32)) == (128, 256, 512)


def test_select_all_predicates_full_proportion():
    kb = flat_kb(2, 3, [(0, 0, 1), (1, 1, 2), (0, 2, 0)])
    store = flat_store(np.eye(2), np.zeros((3, 2)))
    view = select_kbs(kb, {0: 1.0, 1: 0.5}, 1.0, store, 0,
                      kernel_tables(store))
    assert view.n_items == kb.n_items
    np.testing.assert_array_equal(view.fact_ids, [0, 1, 2])


def test_select_empty_predicates_empty_view():
    kb = flat_kb(2, 2, [(0, 0, 1)])
    store = flat_store(np.eye(2), np.zeros((2, 2)))
    view = select_kbs(kb, {}, 0.5, store, 0, kernel_tables(store))
    assert view.n_items == 0


def test_select_cap_keeps_lowest_ids_on_ties():
    facts = [(0, i, (i + 1) % 5) for i in range(5)] + \
            [(1, i, i) for i in range(5)]
    kb = flat_kb(2, 5, facts)
    store = flat_store(np.eye(2) * 3.0, np.zeros((5, 2)))
    view = select_kbs(kb, {0: 0.9}, 0.3, store, 0,   # cap = ceil(3) = 3
                      kernel_tables(store))
    np.testing.assert_array_equal(view.fact_ids, [0, 1, 2])
    assert view.n_rules == 0


def test_select_prefers_higher_generation_score():
    facts = [(0, 0, 0), (0, 1, 1), (1, 2, 2), (1, 0, 1)]
    kb = flat_kb(2, 3, facts)
    store = flat_store(np.eye(2) * 3.0, np.zeros((3, 2)))
    view = select_kbs(kb, {0: 0.2, 1: 0.9}, 0.75, store, 0,  # cap = 3
                      kernel_tables(store))
    np.testing.assert_array_equal(view.fact_ids, [0, 2, 3])


def test_select_tie_breaks_by_goal_similarity():
    # generation scores equal; predicate 1 sits nearer the goal relation 2
    Ep = np.array([[5.0, 0.0], [1.0, 0.0], [0.0, 0.0]])
    facts = [(0, 0, 0), (0, 1, 1), (1, 2, 2), (1, 0, 1)]
    kb = flat_kb(3, 3, facts)
    store = flat_store(Ep, np.zeros((3, 2)))
    view = select_kbs(kb, {0: 0.5, 1: 0.5}, 0.75, store, 2,  # cap = 3
                      kernel_tables(store))
    np.testing.assert_array_equal(view.fact_ids, [0, 2, 3])


def test_select_maps_template_heads_to_nearest_real():
    vocab = Vocabulary()
    for name in ("p0", "p1", "#0"):
        vocab.intern_predicate(name)
    for c in ("a", "b"):
        vocab.intern_constant(c)
    rule = Rule(SHAPE_IMPLIES, 2, 0)
    kb = KnowledgeBase(vocab, [Atom(0, (0, 1)), Atom(1, (1, 0))], [rule])
    store = flat_store([[0.0, 0.0], [4.0, 4.0]], np.zeros((2, 2)),
                       slots=[[3.9, 4.0]])   # slot nearest p1
    tables = kernel_tables(store)
    with_p1 = select_kbs(kb, {1: 0.8}, 1.0, store, 1, tables)
    assert with_p1.rule_ids == (0,)
    np.testing.assert_array_equal(with_p1.fact_ids, [1])
    without = select_kbs(kb, {0: 0.8}, 1.0, store, 0, tables)
    assert without.rule_ids == ()
    np.testing.assert_array_equal(without.fact_ids, [0])


def test_select_cap_invariant_random():
    rng = np.random.default_rng(2)
    kb = flat_kb(4, 5, [(int(rng.integers(4)), int(rng.integers(5)),
                         int(rng.integers(5))) for _ in range(30)])
    store = flat_store(rng.normal(size=(4, 3)), rng.normal(size=(5, 3)))
    tables = kernel_tables(store)
    for _ in range(40):
        prop = float(rng.uniform(0.05, 1.0))
        lp = {int(p): float(rng.uniform(0, 1))
              for p in rng.choice(4, size=int(rng.integers(1, 5)),
                                  replace=False)}
        view = select_kbs(kb, lp, prop, store, int(rng.integers(4)), tables)
        assert view.n_items <= math.ceil(prop * kb.n_items)
    with pytest.raises(ValueError, match="proportion"):
        select_kbs(kb, {0: 1.0}, 0.0, store, 0, tables)


@pytest.mark.parametrize("seed", range(4))
def test_select_matches_tuple_sort_reference(seed):
    # two distinct predicate rows, and slots copying real rows, so many
    # heads tie exactly in Kp[head, goal]; generation scores take two values
    rng = np.random.default_rng(seed)
    n_real, n_slots, n_const = 4, 3, 5
    vocab = Vocabulary()
    for name in [f"p{p}" for p in range(n_real)] + [
            f"#{k}" for k in range(n_slots)]:
        vocab.intern_predicate(name)
    for c in range(n_const):
        vocab.intern_constant(f"c{c}")
    facts = [Atom(int(rng.integers(n_real)), (int(rng.integers(n_const)),
                                              int(rng.integers(n_const))))
             for _ in range(40)]
    rules = [Rule(SHAPE_INVERSE, n_real + int(rng.integers(n_slots)),
                  int(rng.integers(n_real)))
             for _ in range(8)]
    kb = KnowledgeBase(vocab, facts, rules)
    Ep = rng.normal(size=(2, 4))[rng.integers(2, size=n_real)]
    store = flat_store(Ep, rng.normal(size=(n_const, 4)),
                       slots=Ep[rng.integers(n_real, size=n_slots)])
    tables = kernel_tables(store)
    to_real = nearest_real_predicate(store)
    heads = np.concatenate([kb.fact_pred, kb.rule_head_pred])
    below = above = tie_cuts = 0
    for _ in range(60):
        lp = {int(p): float(rng.choice([0.25, 0.5])) for p in rng.choice(
            n_real, size=int(rng.integers(1, n_real + 1)), replace=False)}
        prop = float(rng.choice([0.05, 0.2, 0.5, 1.0]))
        goal = int(rng.integers(n_real))
        view = select_kbs(kb, lp, prop, store, goal, tables)
        fact_ids, rule_ids = select_kbs_reference(kb, lp, prop, store, goal,
                                                  tables)
        assert view.fact_ids.tolist() == fact_ids
        assert view.rule_ids == tuple(rule_ids)
        assert all(type(j) is int for j in view.rule_ids)
        # how the cap met the matching items, and whether it cut a tie
        key = {i: (lp.get(int(to_real[h]), -1.0), tables[0][h, goal])
               for i, h in enumerate(heads.tolist())}
        matched = [i for i in key if key[i][0] >= 0.0]
        kept = set(fact_ids) | {kb.n_facts + j for j in rule_ids}
        if len(kept) < len(matched):
            below += 1
            last = min(key[i] for i in kept)
            tie_cuts += any(key[i] == last for i in matched if i not in kept)
        else:
            above += 1
    assert below and above and tie_cuts


# --- goal batches ----------------------------------------------------------


def test_goal_batches_are_single_relation():
    splits = tiny_splits()
    cfg = tiny_cfg(batch_goals=4)
    batches = build_goal_batches(splits.train, cfg, np.random.default_rng(0))
    seen = []
    for rel, goals in batches:
        assert 1 <= len(goals) <= 4
        assert all(g.pred == rel for g in goals)
        seen.extend(g.as_triple() for g in goals)
    assert sorted(seen) == sorted(f.as_triple() for f in splits.train)


def test_goal_batches_deterministic_and_cappable():
    splits = tiny_splits()
    cfg = tiny_cfg(batch_goals=4)
    a = build_goal_batches(splits.train, cfg, np.random.default_rng(9))
    b = build_goal_batches(splits.train, cfg, np.random.default_rng(9))
    assert [(r, [g.as_triple() for g in gs]) for r, gs in a] == \
           [(r, [g.as_triple() for g in gs]) for r, gs in b]
    capped = build_goal_batches(splits.train,
                                tiny_cfg(batch_goals=4,
                                         batches_per_iteration=2),
                                np.random.default_rng(9))
    assert capped == a[:2]


# --- iteration semantics ---------------------------------------------------


@pytest.fixture(scope="module")
def ready():
    """Initialized KB/store shared by the iteration tests (read-only)."""
    splits = tiny_splits()
    cfg = tiny_cfg()
    rng = np.random.default_rng(cfg.seed)
    kb, store = initialize(cfg, splits.vocab, splits.train, rng)
    known = frozenset(f.as_triple() for part in
                      (splits.train, splits.valid, splits.test) for f in part)
    return types.SimpleNamespace(splits=splits, cfg=cfg, kb=kb, store=store,
                                 known=known)


def fresh_state(ready):
    return TrainState(0, copy.deepcopy(ready.store),
                      RelationStorage(storage_capacities(ready.cfg)))


def test_initialize_shapes(ready):
    assert ready.store[PRED_EMB].shape == (3, 4)
    # two slots per single-body template, three per chain, two of each shape
    assert ready.store[SLOT_EMB].shape[0] == 14
    assert "gen.out.W" in ready.store
    assert ready.kb.n_rules == 6
    assert ready.kb.n_facts == len(ready.splits.train)


def test_iteration_commits_new_state(ready):
    state = fresh_state(ready)
    snap = snapshot(state.store)
    steps_before = state.store.step_count
    batches = build_goal_batches(ready.splits.train, ready.cfg,
                                 np.random.default_rng(1))
    nxt = em_iteration(state, ready.kb, batches, ready.cfg,
                       np.random.default_rng(2), ready.known,
                       valid_eval=lambda store: 0.25)
    assert nxt.iteration == 1 and state.iteration == 0
    assert len(nxt.metrics_log) == 1 and state.metrics_log == []
    row = nxt.metrics_log[0]
    assert row["iteration"] == 1
    assert row["valid_mrr"] == 0.25
    assert math.isfinite(row["prover_loss"])
    assert math.isfinite(row["generator_loss"])
    assert row["traversed"] > 0
    assert 0.0 <= row["utilization"] <= 1.0
    assert row["goals_pos"] == sum(len(goals) for _, goals in batches)
    assert row["goals_neg"] <= ready.cfg.prover_negatives * row["goals_pos"]
    assert 0 <= row["proved_pos"] <= row["goals_pos"]
    assert 0 <= row["proved_neg"] <= row["goals_neg"]
    # the store and storage are trained in place
    assert nxt.store is state.store and nxt.storage is state.storage
    assert not unchanged(nxt.store, snap)
    assert not np.array_equal(nxt.store["gen.out.W"], snap["gen.out.W"])
    assert nxt.storage.total() > 0
    assert all(e.provenance in ("unify", "nns")
               for layer in nxt.storage.layers for e in layer)
    assert nxt.store.step_count >= steps_before + len(batches)


def test_iteration_failure_propagates(ready):
    state = fresh_state(ready)
    bogus = [(99, [Atom(0, (0, 1))])]
    with pytest.raises(IndexError):
        em_iteration(state, ready.kb, bogus, ready.cfg,
                     np.random.default_rng(3), ready.known)
    assert state.iteration == 0 and state.metrics_log == []


def test_baseline_mode_skips_selection_and_generator(ready):
    state = fresh_state(ready)
    snap = snapshot(state.store)
    cfg = dataclasses.replace(ready.cfg, baseline_full_kb=True)
    batches = build_goal_batches(ready.splits.train, cfg,
                                 np.random.default_rng(4))
    nxt = em_iteration(state, ready.kb, batches, cfg,
                       np.random.default_rng(5), ready.known)
    assert nxt.iteration == 1
    assert nxt.storage.total() == 0
    assert math.isnan(nxt.metrics_log[0]["generator_loss"])
    for name in nxt.store.params:
        if name.startswith("gen."):
            np.testing.assert_array_equal(nxt.store[name], snap[name])
    assert not np.array_equal(nxt.store[PRED_EMB], snap[PRED_EMB])


def counting_adds(monkeypatch):
    adds = []
    add = HighQualityBuffer.add

    def counted(self, *args, **kwargs):
        adds.append(args[0])
        add(self, *args, **kwargs)

    monkeypatch.setattr(HighQualityBuffer, "add", counted)
    return adds


def test_full_kb_iteration_keeps_no_harvest(ready, monkeypatch):
    """No storage update reads a full-KB run's harvest, so its e-step fills
    no buffer; loss, counters and store match the same e-step with one."""
    cfg = dataclasses.replace(ready.cfg, baseline_full_kb=True)
    batches = build_goal_batches(ready.splits.train, cfg,
                                 np.random.default_rng(4))
    buffers = []

    def with_buffer(goals, view, store, cfg, hq, *rest):
        buffers.append(hq if hq is not None else HighQualityBuffer())
        return training_loss(goals, view, store, cfg, buffers[-1], *rest)

    with monkeypatch.context() as m:
        m.setattr(em, "training_loss", with_buffer)
        harvested = em_iteration(fresh_state(ready), ready.kb, batches, cfg,
                                 np.random.default_rng(5), ready.known)
    assert sum(len(b) for b in buffers) > 0  # the reference really harvests
    adds = counting_adds(monkeypatch)
    plain = em_iteration(fresh_state(ready), ready.kb, batches, cfg,
                         np.random.default_rng(5), ready.known)
    assert adds == []
    row, ref = plain.metrics_log[0], harvested.metrics_log[0]
    del row["attp_ms"], ref["attp_ms"]
    np.testing.assert_equal(row, ref)  # NaN equals NaN here
    assert row["established"] > 0
    assert unchanged(plain.store, snapshot(harvested.store))
    assert plain.storage.total() == harvested.storage.total() == 0


def test_selection_iteration_still_harvests(ready, monkeypatch):
    adds = counting_adds(monkeypatch)
    state = fresh_state(ready)
    batches = build_goal_batches(ready.splits.train, ready.cfg,
                                 np.random.default_rng(1))
    nxt = em_iteration(state, ready.kb, batches, ready.cfg,
                       np.random.default_rng(2), ready.known)
    assert adds
    assert nxt.storage.total() > 0


def test_zero_batches_is_a_quiet_iteration(ready):
    state = fresh_state(ready)
    nxt = em_iteration(state, ready.kb, [], ready.cfg,
                       np.random.default_rng(6), ready.known)
    assert nxt.iteration == 1
    row = nxt.metrics_log[0]
    assert math.isnan(row["prover_loss"])
    assert math.isnan(row["utilization"])


def test_mstep_clip_norm_counts_generator_gradients_only(ready, monkeypatch):
    """The GRU also reads the predicate rows, which the m-step never
    updates; a grad_clip between the generator-only norm and the norm with
    those rows (taken from the tape reference) must leave the m-step
    unscaled."""
    state = fresh_state(ready)
    batches = build_goal_batches(ready.splits.train, ready.cfg,
                                 np.random.default_rng(1))
    em_iteration(state, ready.kb, batches, ready.cfg,
                 np.random.default_rng(2), ready.known)
    assert state.storage.total() > 0
    norms = []   # per m-step: (with the predicate rows, generator only)
    step = em.train_generator_step

    def recorded(storage, goals, store, rng, samples):
        every, _ = tape_generator_step(storage, goals, store,
                                       copy.deepcopy(rng), samples)
        grads, loss = step(storage, goals, store, rng, samples)
        assert all(k.startswith("gen.") for k in grads)
        norms.append((clip_gradients(every, math.inf),
                      clip_gradients(grads, math.inf)))
        return grads, loss

    monkeypatch.setattr(em, "train_generator_step", recorded)

    def mstep_only(grad_clip):
        # no goal batches: the iteration runs the m-step alone
        again = TrainState(1, copy.deepcopy(state.store),
                           copy.deepcopy(state.storage))
        cfg = dataclasses.replace(ready.cfg, grad_clip=grad_clip)
        return em_iteration(again, ready.kb, [], cfg,
                            np.random.default_rng(3), ready.known).store

    free = mstep_only(1e9)
    np.testing.assert_array_equal(free[PRED_EMB], state.store[PRED_EMB])
    with_pred = max(n for n, _ in norms)
    gen_only = max(n for _, n in norms)
    assert gen_only < with_pred
    clipped = mstep_only((gen_only + with_pred) / 2.0)
    for name in free.params:
        np.testing.assert_array_equal(clipped[name], free[name])


# --- full runs -------------------------------------------------------------


def test_run_training_writes_metrics_and_checkpoints(tmp_path):
    splits = tiny_splits()
    cfg = tiny_cfg()
    state = run_training(cfg, splits, tmp_path / "run")
    assert state.iteration == 2
    assert len(state.metrics_log) == 2
    with (tmp_path / "run" / "metrics.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert list(rows[0]) == ["iteration", "prover_loss", "generator_loss",
                            "valid_mrr", "attp_ms", "utilization",
                            "traversed", "established", "goals_pos",
                            "proved_pos", "goals_neg", "proved_neg"]
    assert float(rows[1]["valid_mrr"]) > 0.0
    for sub in ("best", "final"):
        assert (tmp_path / "run" / "checkpoints" / sub / "store.npz").exists()
        assert (tmp_path / "run" / "checkpoints" / sub / "storage.txt").exists()


def test_checkpoint_round_trip(tmp_path):
    splits = tiny_splits()
    cfg = tiny_cfg(iterations=1)
    state = run_training(cfg, splits, tmp_path / "run")
    final = tmp_path / "run" / "checkpoints" / "final"
    back = ParameterStore.load(final / "store.npz")
    assert set(back.params) == set(state.store.params)
    for name in state.store.params:
        np.testing.assert_array_equal(back[name], state.store[name])
    assert back.step_count == state.store.step_count
    vocab = splits.vocab
    rows = parse_storage_lines((final / "storage.txt").read_text())
    assert rows
    assert [(int(r[0]), r[1], float(r[2]), r[3], r[4]) for r in rows] == \
           [(level, vocab.predicate_name(e.pred), pytest.approx(e.score,
                                                                abs=1e-9),
             vocab.predicate_name(e.goal_rel), e.provenance)
            for level, layer in enumerate(state.storage.layers, start=1)
            for e in layer]
    with (final / "metrics.csv").open(newline="") as fh:
        recs = list(csv.DictReader(fh))
    assert len(recs) == state.iteration
    for rec, row in zip(recs, state.metrics_log):
        assert list(rec) == list(METRIC_COLUMNS)
        for col in METRIC_COLUMNS:
            value = row[col]
            assert rec[col] == (repr(value) if isinstance(value, float)
                                else str(value)), col


def test_seeded_runs_match_except_wall_time(tmp_path):
    splits = tiny_splits()
    cfg = tiny_cfg()
    run_training(cfg, splits, tmp_path / "a")
    run_training(cfg, tiny_splits(), tmp_path / "b")
    with (tmp_path / "a" / "metrics.csv").open(newline="") as fh:
        rows_a = list(csv.DictReader(fh))
    with (tmp_path / "b" / "metrics.csv").open(newline="") as fh:
        rows_b = list(csv.DictReader(fh))
    assert len(rows_a) == len(rows_b) == 2
    for ra, rb in zip(rows_a, rows_b):
        for col in ra:
            if col != "attp_ms":
                assert ra[col] == rb[col], col


def test_early_stopping_patience_zero(tmp_path):
    splits = tiny_splits()
    cfg = tiny_cfg(iterations=6, patience=0)
    scripted = iter([0.5, 0.4, 0.3, 0.2, 0.1, 0.05])
    state = run_training(cfg, splits, tmp_path / "run",
                         valid_eval=lambda store: next(scripted))
    assert state.iteration == 2    # first degradation after the first best
    best = tmp_path / "run" / "checkpoints" / "best" / "metrics.csv"
    with best.open(newline="") as fh:
        assert [r["iteration"] for r in csv.DictReader(fh)] == ["1"]


def test_zero_iterations_leaves_state_initial(tmp_path):
    splits = tiny_splits()
    cfg = tiny_cfg(iterations=0)
    state = run_training(cfg, splits, tmp_path / "run")
    assert state.iteration == 0
    assert state.metrics_log == []
    text = (tmp_path / "run" / "metrics.csv").read_text()
    assert text.strip() == "iteration,prover_loss,generator_loss," \
                           "valid_mrr,attp_ms,utilization,traversed," \
                           "established,goals_pos,proved_pos,goals_neg," \
                           "proved_neg"
