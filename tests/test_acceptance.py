"""End-to-end acceptance gate.

Each criterion ends in exactly one ``[ACCEPTANCE] <id>: PASS|FAIL|BLOCKED``
line (run ``pytest -s tests/test_acceptance.py`` to watch them stream).
Criteria needing the published benchmark datasets look for them under the
data directory (``SELPROVER_DATA`` or ``./data``) and report BLOCKED when
absent; everything else runs self-contained. BLOCKED criteria carry the
full implementation: drop the dataset directories in and they execute.
"""

import csv
import dataclasses
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from selprover import autodiff as ad
from selprover import pretrain
from selprover.autodiff import ParameterStore, finite_difference_check
from selprover.config import RunConfig, default_data_dir
from selprover.datasets import DatasetError, load_dataset
from selprover.em import run_training, select_kbs, storage_capacities
from selprover.evaluate import (EfficiencyRecord, compute_auc_pr,
                                compute_efficiency, compute_mrr_hits,
                                evaluate_ranking, pooled_region_auc_pr)
from selprover.generator import (RelationStorage, StorageEntry, gru_step,
                                 init_generator, init_hidden, item_embeddings,
                                 nns_complete, train_generator_step)
from selprover.kb import (Atom, KnowledgeBase, KBView, Rule, Vocabulary,
                          mkvar, split_dataset)
from selprover.prover import (Counters, HighQualityBuffer, ProverConfig,
                              prove_goal, template_rules, training_loss)
from selprover.pretrain import CONST_EMB, PRED_EMB
from selprover.scoring import BatchedEvaluator

from oracles import auc_pr_bruteforce, nns_oracle, oracle_prove, random_proof_case

X, Y, Z = mkvar(0), mkvar(1), mkvar(2)


def conclude(cid: str, ok: bool, detail: str = "") -> None:
    tail = f" {detail}" if detail else ""
    print(f"\n[ACCEPTANCE] {cid}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"{cid}: {detail}"


def blocked(cid: str, why: str) -> None:
    print(f"\n[ACCEPTANCE] {cid}: BLOCKED {why}")
    pytest.skip(f"{cid} blocked: {why}")


def require_dataset(cid: str, *names: str):
    """Load the first resolvable dataset name or mark the criterion BLOCKED."""
    data_dir = default_data_dir()
    for name in names:
        try:
            return load_dataset(name, data_dir, seed=7)
        except DatasetError:
            continue
    blocked(cid, f"dataset {names[0]!r} not present under {data_dir!r}; "
                 f"place the benchmark files there to run this criterion")


def build_package(facts, rules, Ep, Ec):
    vocab = Vocabulary()
    for p in range(Ep.shape[0]):
        vocab.intern_predicate(f"p{p}")
    for c in range(Ec.shape[0]):
        vocab.intern_constant(f"c{c}")
    atoms = [Atom(p, (s, o)) for p, s, o in facts]
    rl = [Rule(head=Atom(h[0], (h[1], h[2])),
               body=tuple(Atom(b[0], (b[1], b[2])) for b in body))
          for h, body in rules]
    kb = KnowledgeBase(vocab, atoms, rl)
    store = ParameterStore()
    store.add(PRED_EMB, Ep.copy())
    store.add(CONST_EMB, Ec.copy())
    return kb, store


# ---------------------------------------------------------------------------
# criterion 1: reference link-prediction quality on the published benchmarks
# ---------------------------------------------------------------------------

RANKING_BANDS = {
    "nations": ({"mrr": (0.701, 0.05), "hits@10": (0.997, 0.01)}, 15 * 60),
    "kinship": ({"mrr": (0.772, 0.05), "hits@1": (0.609, 0.06),
                 "hits@10": (0.973, 0.02)}, 60 * 60),
    "umls": ({"mrr": (0.801, 0.05), "hits@10": (0.972, 0.02)}, 60 * 60),
}

AUC_BANDS = {  # percent scale
    "countries_s1": (100.0, 0.5, 30 * 60),
    "countries_s2": (89.47, 5.0, 30 * 60),
    "countries_s3": (95.21, 5.0, 30 * 60),
}

BEST_OF_SEEDS = (7, 8, 9)


def _best_of_runs(ds, tmp_path):
    """Train once per seed, return the scorer of the best validation run."""
    best = (-math.inf, None, None)
    for seed in BEST_OF_SEEDS:
        cfg = RunConfig(dataset=ds.name, seed=seed).validate()
        out = tmp_path / str(seed)
        state = run_training(cfg, load_dataset(ds.name, default_data_dir(),
                                               seed=seed), out)
        valid = max((r["valid_mrr"] for r in state.metrics_log
                     if not math.isnan(r["valid_mrr"])), default=-math.inf)
        ckpt = out / "checkpoints" / "best" / "store.npz"
        store = ParameterStore.load(ckpt) if ckpt.is_file() else state.store
        if valid > best[0]:
            best = (valid, store, cfg)
    _, store, cfg = best
    fresh = load_dataset(ds.name, default_data_dir(), seed=cfg.seed)
    kb = KnowledgeBase(fresh.vocab, fresh.train,
                       template_rules(fresh.vocab, cfg))
    return fresh, BatchedEvaluator(kb.full_view(), store, cfg.max_depth,
                                   cfg.min_score)


@pytest.mark.parametrize("name", sorted(RANKING_BANDS))
def test_reference_ranking_bands(name, tmp_path):
    cid = f"1 {name}"
    bands, budget = RANKING_BANDS[name]
    ds = require_dataset(cid, name)
    t0 = time.perf_counter()
    fresh, scorer = _best_of_runs(ds, tmp_path)
    known = frozenset(f.as_triple() for f in fresh.all_facts)
    metrics = compute_mrr_hits(evaluate_ranking(fresh.test, scorer, known))
    wall = time.perf_counter() - t0
    misses = [f"{k}={metrics[k]:.3f} (want {mid}±{tol})"
              for k, (mid, tol) in bands.items()
              if abs(metrics[k] - mid) > tol]
    if wall > budget:
        misses.append(f"runtime {wall:.0f}s over {budget}s budget")
    conclude(cid, not misses,
             "; ".join(misses) or
             " ".join(f"{k}={metrics[k]:.3f}" for k in bands))


@pytest.mark.parametrize("name", sorted(AUC_BANDS))
def test_reference_region_auc_bands(name, tmp_path):
    cid = f"1 {name}"
    mid, tol, budget = AUC_BANDS[name]
    ds = require_dataset(cid, name, name.replace("_", "-"))
    t0 = time.perf_counter()
    fresh, scorer = _best_of_runs(ds, tmp_path)
    truth = frozenset(f.as_triple() for f in fresh.all_facts)
    rels = {f.pred for f in fresh.test}
    regions = sorted({f.args[1] for f in fresh.all_facts if f.pred in rels})
    queries = [(f.pred, f.args[0]) for f in fresh.test]
    auc = 100.0 * pooled_region_auc_pr(queries, regions, scorer, truth)
    wall = time.perf_counter() - t0
    problems = []
    if abs(auc - mid) > tol:
        problems.append(f"auc={auc:.2f} (want {mid}±{tol})")
    if wall > budget:
        problems.append(f"runtime {wall:.0f}s over {budget}s budget")
    conclude(cid, not problems, "; ".join(problems) or f"auc={auc:.2f}")


# ---------------------------------------------------------------------------
# criterion 2: selection makes proving cheaper and better targeted
# ---------------------------------------------------------------------------


def _efficiency_pair(dataset: str, tmp_path, **overrides):
    """Selected-mode vs full-KB-mode training under one seed."""
    base = dict(dataset=dataset, seed=11, embedding_dim=4, pretrain_epochs=15,
                templates_implies=2, templates_inverse=2, templates_chain=2,
                batch_goals=8, batches_per_iteration=3, iterations=3,
                gen_width=4, gen_epochs=4, beam=12, min_score=0.2,
                valid_subsample=8, prover_negatives=1, proportion=0.3,
                patience=100)
    base.update(overrides)
    cfg = RunConfig(**base)
    out = {}
    for mode, flag in (("selected", False), ("full", True)):
        ds = load_dataset(cfg.dataset, default_data_dir(), cfg.seed)
        state = run_training(dataclasses.replace(cfg, baseline_full_kb=flag),
                             ds, tmp_path / mode)
        out[mode] = [EfficiencyRecord(int(r["traversed"]),
                                      int(r["established"]),
                                      float(r["attp_ms"]))
                     for r in state.metrics_log]
    return out


def _efficiency_verdict(pair) -> tuple[bool, str]:
    # first iteration pays jit compilation; judge wall time on the rest
    eff = compute_efficiency(pair["selected"][1:], pair["full"][1:])
    t_sel = sum(r.traversed for r in pair["selected"])
    t_full = sum(r.traversed for r in pair["full"])
    ok = (eff["attp_ratio"] < 1.0 and t_sel < t_full
          and eff["utilization"] > eff["utilization_baseline"])
    return ok, (f"attp_ratio={eff['attp_ratio']:.3f} "
                f"traversed={t_sel}<{t_full} "
                f"utilization={eff['utilization']:.3f}"
                f">{eff['utilization_baseline']:.3f}")


def test_selection_efficiency_reference_data(tmp_path):
    cid = "2 efficiency"
    for name in ("nations", "kinship"):
        require_dataset(cid, name)
    pair_n = _efficiency_pair("nations", tmp_path / "nations",
                              embedding_dim=100, pretrain_epochs=200,
                              min_score=0.1, beam=0, iterations=5)
    pair_k = _efficiency_pair("kinship", tmp_path / "kinship",
                              embedding_dim=100, pretrain_epochs=200,
                              min_score=0.1, beam=0, iterations=5)
    ok_n, d_n = _efficiency_verdict(pair_n)
    ok_k, d_k = _efficiency_verdict(pair_k)
    conclude(cid, ok_n and ok_k, f"nations[{d_n}] kinship[{d_k}]")


def test_selection_efficiency_synthetic_evidence(tmp_path):
    # same property on the built-in dataset; supporting evidence, not the
    # reference-data criterion above
    pair = _efficiency_pair("family", tmp_path)
    ok, detail = _efficiency_verdict(pair)
    print(f"\n[EVIDENCE] 2 synthetic: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, detail


# ---------------------------------------------------------------------------
# criterion 3: oracle equivalences
# ---------------------------------------------------------------------------


def test_prover_matches_enumeration_oracle():
    cid = "3 prover-oracle"
    rng = np.random.default_rng(2024)
    worst = 0.0
    proofs = 0
    for _ in range(200):
        facts, rules, Ep, Ec, goal, thr = random_proof_case(
            rng, max_facts=12, max_rules=3, weird=False)
        kb, store = build_package(facts, rules, Ep, Ec)
        res = prove_goal(Atom(goal[0], (goal[1], goal[2])), kb.full_view(),
                         store, ProverConfig(max_depth=2, min_score=thr))
        best, stats = oracle_prove(goal, facts, rules, Ep, Ec, 2, thr)
        worst = max(worst, abs(res.score - best))
        proofs += len(stats.scores)
    conclude(cid, worst < 1e-9 and proofs > 0,
             f"200 KBs, max|Δ|={worst:.2e}, {proofs} oracle proofs")


def test_zero_threshold_matches_unrestricted_formulation():
    cid = "3 plain-ntp"
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(120):
        facts, rules, Ep, Ec, goal, _ = random_proof_case(
            rng, max_facts=10, max_rules=3, weird=False)
        kb, store = build_package(facts, rules, Ep, Ec)
        res = prove_goal(Atom(goal[0], (goal[1], goal[2])), kb.full_view(),
                         store, ProverConfig(max_depth=2, min_score=0.0))
        best, _ = oracle_prove(goal, facts, rules, Ep, Ec, 2, 0.0)
        worst = max(worst, abs(res.score - best))
    conclude(cid, worst < 1e-9, f"120 KBs at threshold 0, max|Δ|={worst:.2e}")


def test_auc_pr_matches_bruteforce_sweep():
    cid = "3 auc-pr"
    rng = np.random.default_rng(5150)
    worst = 0.0
    cases = 0
    for n in range(1, 65):
        for _ in range(4):
            # round to force tie groups at every size
            scores = np.round(rng.uniform(0.0, 1.0, size=n), 1)
            labels = rng.integers(0, 2, size=n)
            if labels.sum() == 0:
                labels[int(rng.integers(n))] = 1
            got = compute_auc_pr(scores, labels)
            want = auc_pr_bruteforce(scores, labels)
            worst = max(worst, abs(got - want))
            cases += 1
    conclude(cid, worst < 1e-9, f"{cases} cases n<=64, max|Δ|={worst:.2e}")


def _nns_instance(rng):
    n_preds = int(rng.integers(2, 5))
    n_consts = int(rng.integers(3, 7))
    n_items = min(int(rng.integers(5, 21)), n_preds * n_consts * n_consts)
    seen = set()
    facts = []
    while len(facts) < n_items:
        f = (int(rng.integers(n_preds)), int(rng.integers(n_consts)),
             int(rng.integers(n_consts)))
        if f not in seen:
            seen.add(f)
            facts.append(f)
    Ep = rng.normal(0.0, 0.5, size=(n_preds, 4))
    Ec = rng.normal(0.0, 0.5, size=(n_consts, 4))
    kb, store = build_package(facts, [], Ep, Ec)
    return kb, store, n_items, n_preds


def test_nns_completion_matches_quadratic_sort():
    cid = "3 nns"
    rng = np.random.default_rng(31337)
    for _ in range(100):
        kb, store, n_items, n_preds = _nns_instance(rng)
        hq = HighQualityBuffer()
        n_anchor = int(rng.integers(1, 4))
        anchor_ids = rng.choice(n_items, size=n_anchor, replace=False)
        for a in anchor_ids:
            hq.add(int(a), float(rng.uniform(0.2, 1.0)),
                   int(rng.integers(1, 4)), goal_rel=int(rng.integers(n_preds)))
        grow = int(rng.integers(0, n_items))
        emb = item_embeddings(kb, store)
        anchors = emb[[int(a) for a in anchor_ids]]
        cand = [i for i in range(n_items) if i not in hq]
        nearest = nns_oracle(anchors, emb[cand])
        dist = [float(np.sqrt(np.sum((emb[c] - anchors[j]) ** 2)))
                for c, j in zip(cand, nearest)]
        order = sorted(range(len(cand)), key=lambda i: (dist[i], cand[i]))
        want = [cand[i] for i in order[:grow]]
        added = nns_complete(hq, kb, store, max_size=len(hq.items) + grow)
        assert added == want
    conclude(cid, True, "100 instances, 5-20 items each, exact agreement")


# ---------------------------------------------------------------------------
# criterion 4: gradients against central finite differences
# ---------------------------------------------------------------------------


def _fd_gaussian_kernel() -> float:
    # one soft fact match whose bottleneck is a constant-kernel entry between
    # two random 6-d rows; the loss is -log K = ||u - v||^2
    rng = np.random.default_rng(1)
    Ep = np.zeros((1, 6))
    Ec = rng.normal(0.0, 0.3, size=(3, 6))
    kb, store = build_package([(0, 0, 1)], [], Ep, Ec)
    goal = Atom(0, (0, 2))
    cfg = RunConfig(max_depth=1, min_score=0.0, prover_negatives=0,
                    embedding_dim=6)

    def raw():
        return training_loss([goal], kb.full_view(), store, cfg,
                             HighQualityBuffer(), Counters(), kb.fact_set,
                             np.random.default_rng(0))

    _, grads, _ = raw()
    return _sweep_manual_fd(store, lambda: raw()[0], grads, picks=12)


def _fd_complex_score() -> float:
    # the closed-form pretraining gradient, weight decay on, one row repeated
    rng = np.random.default_rng(2)
    store = pretrain.init_store(4, 2, 6, rng)
    pos, neg = (np.stack([rng.integers(0, 2, size=n), rng.integers(0, 4, size=n),
                          rng.integers(0, 4, size=n)], axis=1) for n in (3, 4))
    pos = np.concatenate([pos, pos[:1]])
    neg = np.concatenate([neg, neg[:1]])

    def loss():
        return pretrain.batch_loss_grad(store, pos, neg, 0.1)

    _, g_const, g_pred = loss()
    return _sweep_manual_fd(store, lambda: loss()[0],
                            {CONST_EMB: g_const, PRED_EMB: g_pred}, picks=20)


def _grad_case():
    """One chain proof whose kernel factors sit far from every tie.

    Bottleneck gaps are exp(-0.05) vs exp(-0.4) and the head matches
    exactly, so min/max choices are separated by much more than 1e-3.
    """
    Ep = np.zeros((5, 2))
    Ep[1] = (5.0, 0.0)
    Ep[2] = (np.sqrt(0.05), 0.0)
    Ep[3] = (5.0 + np.sqrt(0.4), 0.0)
    Ep[4] = (-4.0, 3.0)
    Ec = np.array([[0.0, 0.0], [0.0, 2.0], [2.0, 0.0]])
    facts = [(0, 0, 1), (1, 1, 2)]
    rules = [((4, X, Y), [(2, X, Z), (3, Z, Y)])]
    kb, store = build_package(facts, rules, Ep, Ec)
    return kb, store, Atom(4, (0, 2))


def _fd_prove_goal() -> float:
    # the loss's gradient against differences of -log of the search's own
    # score, re-proved at every perturbed point
    kb, store, goal = _grad_case()
    cfg = RunConfig(max_depth=2, min_score=0.3, prover_negatives=0,
                    embedding_dim=2)
    _, grads, _ = training_loss([goal], kb.full_view(), store, cfg,
                                HighQualityBuffer(), Counters(), kb.fact_set,
                                np.random.default_rng(3))

    def neg_log_score():
        res = prove_goal(goal, kb.full_view(), store,
                         ProverConfig(max_depth=2, min_score=0.3))
        return -np.log(res.score)

    return _sweep_manual_fd(store, neg_log_score, grads)


def _sweep_manual_fd(store, evaluate, grads, picks=8, eps=1e-5) -> float:
    rng = np.random.default_rng(4)
    worst = 0.0
    for name, grad in grads.items():
        flat = store.params[name].reshape(-1)
        g = grad.reshape(-1)
        for c in rng.choice(flat.size, size=min(picks, flat.size),
                            replace=False):
            keep = flat[c]
            flat[c] = keep + eps
            up = evaluate()
            flat[c] = keep - eps
            dn = evaluate()
            flat[c] = keep
            fd = (up - dn) / (2 * eps)
            worst = max(worst, abs(fd - g[c]) / max(abs(fd), abs(g[c]), 1e-8))
    return worst


def _fd_training_loss() -> float:
    kb, store, goal = _grad_case()
    cfg = RunConfig(max_depth=2, min_score=0.3, prover_negatives=2,
                    embedding_dim=2)

    def raw():
        return training_loss([goal], kb.full_view(), store, cfg,
                             HighQualityBuffer(), Counters(), kb.fact_set,
                             np.random.default_rng(17))

    _, grads, _ = raw()
    return _sweep_manual_fd(store, lambda: raw()[0], grads)


def _gen_store(n_preds, dim, seed):
    rng = np.random.default_rng(seed)
    store = ParameterStore()
    store.add(PRED_EMB, rng.normal(0.0, 0.5, size=(n_preds, dim)))
    store.add(CONST_EMB, rng.normal(0.0, 0.5, size=(3, dim)))
    init_generator(store, n_preds, dim, rng)
    return store


def _fd_gru_step() -> float:
    store = _gen_store(4, 4, seed=5)
    onehot = np.zeros((1, 4))
    onehot[0, 2] = 1.0

    def f(s, tape):
        h, dist = gru_step(tape, init_hidden(tape, 0), 0, 1)
        return ad.mul(ad.log(ad.vsum(ad.mul(dist, onehot))), -1.0)

    return finite_difference_check(f, store, rng=np.random.default_rng(6))


def _fd_train_generator_step() -> float:
    store = _gen_store(5, 4, seed=7)
    storage = RelationStorage((4, 4, 4))
    for level, pred in ((1, 2), (2, 4), (3, 1)):
        storage.add(level, StorageEntry(pred, 0.9, 0, "unify"))
    storage.add(1, StorageEntry(3, 0.4, 0, "unify"))

    def raw():
        return train_generator_step(storage, [0], store,
                                    np.random.default_rng(21), samples=3)

    tape, loss = raw()
    tape.backward(loss)
    grads = {k: leaf.grad.copy() for k, leaf in tape.leaves.items()}
    return _sweep_manual_fd(store, lambda: raw()[1].item(), grads, picks=5)


def test_gradients_match_finite_differences():
    cid = "4 finite-differences"
    checks = {
        "gaussian_kernel": _fd_gaussian_kernel(),
        "complex_score": _fd_complex_score(),
        "prove_goal": _fd_prove_goal(),
        "training_loss": _fd_training_loss(),
        "gru_step": _fd_gru_step(),
        "train_generator_step": _fd_train_generator_step(),
    }
    bad = {k: v for k, v in checks.items() if not v < 1e-4}
    conclude(cid, not bad,
             "; ".join(f"{k}={v:.2e}" for k, v in
                       (bad or checks).items()))


# ---------------------------------------------------------------------------
# criterion 5: structural invariants, 1000+ generated cases each
# ---------------------------------------------------------------------------

_capacity_runs = [0]


@settings(max_examples=1000, deadline=None)
@given(st.integers(1, 4), st.integers(1, 8),
       st.lists(st.integers(1, 5), min_size=1, max_size=4),
       st.integers(0, 2**31 - 1))
def test_storage_capacity_law(depth, batch, eps, seed):
    eps = tuple(eps[: depth + 1]) or (1,)
    depth = len(eps) - 1
    if depth < 1:
        eps = eps + (2,)
        depth = 1
    cfg = RunConfig(max_depth=depth, ep_coefficients=eps, batch_goals=batch)
    caps = storage_capacities(cfg)
    # compounding recurrence: layer 1 is ep1*B, each next multiplies on
    want = [eps[0] * batch]
    for e in eps[1:]:
        want.append(e * want[-1])
    assert caps == tuple(want)
    storage = RelationStorage(caps)
    rng = np.random.default_rng(seed)
    for _ in range(int(rng.integers(0, 40))):
        level = int(rng.integers(1, len(caps) + 1))
        storage.add(level, StorageEntry(int(rng.integers(5)),
                                        float(rng.uniform()), 0, "unify"))
        assert all(len(layer) <= cap
                   for layer, cap in zip(storage.layers, caps))
    _capacity_runs[0] += 1


_cap_runs = [0]


@settings(max_examples=1000, deadline=None)
@given(st.integers(3, 24), st.integers(0, 4), st.integers(1, 100),
       st.integers(0, 2**31 - 1))
def test_selected_kb_cap(n_facts, n_rules, prop_pct, seed):
    rng = np.random.default_rng(seed)
    n_preds, n_consts = 4, 5
    seen = set()
    facts = []
    while len(facts) < min(n_facts, n_preds * n_consts * n_consts):
        f = (int(rng.integers(n_preds)), int(rng.integers(n_consts)),
             int(rng.integers(n_consts)))
        if f not in seen:
            seen.add(f)
            facts.append(f)
    rules = [((int(rng.integers(n_preds)), X, Y),
              [(int(rng.integers(n_preds)), X, Y)]) for _ in range(n_rules)]
    Ep = rng.normal(0.0, 0.5, size=(n_preds, 3))
    Ec = rng.normal(0.0, 0.5, size=(n_consts, 3))
    kb, store = build_package(facts, rules, Ep, Ec)
    lp = {int(p): float(rng.uniform(0.1, 1.0))
          for p in rng.choice(n_preds, size=int(rng.integers(1, n_preds + 1)),
                              replace=False)}
    proportion = prop_pct / 100.0
    view = select_kbs(kb, lp, proportion, store, goal_rel=int(rng.integers(n_preds)))
    assert view.n_items <= math.ceil(proportion * kb.n_items)
    _cap_runs[0] += 1


_mono_runs = [0]


@settings(max_examples=1000, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_proof_score_monotone_in_kb_growth(seed):
    rng = np.random.default_rng(seed)
    facts, rules, Ep, Ec, goal, thr = random_proof_case(
        rng, max_facts=8, max_rules=2, weird=False)
    kb, store = build_package(facts, rules, Ep, Ec)
    cfg = ProverConfig(max_depth=2, min_score=thr)
    goal_atom = Atom(goal[0], (goal[1], goal[2]))
    n_sub = int(rng.integers(0, kb.n_facts + 1))
    sub_ids = np.sort(rng.choice(kb.n_facts, size=n_sub, replace=False))
    rule_ids = np.arange(len(kb.rules), dtype=np.int64)
    sub = KBView(kb, sub_ids.astype(np.int64), rule_ids)
    s_sub = prove_goal(goal_atom, sub, store, cfg).score
    s_full = prove_goal(goal_atom, kb.full_view(), store, cfg).score
    assert s_sub <= s_full + 1e-12
    assert 0.0 <= s_sub <= 1.0 and 0.0 <= s_full <= 1.0
    _mono_runs[0] += 1


_split_runs = [0]


@settings(max_examples=1000, deadline=None)
@given(st.integers(1, 120), st.integers(0, 2**31 - 1))
def test_split_partition_law(n, seed):
    vocab = Vocabulary()
    p = vocab.intern_predicate("r")
    facts = [Atom(p, (vocab.intern_constant(f"a{i}"),
                      vocab.intern_constant(f"b{i}"))) for i in range(n)]
    split = split_dataset(facts, (0.3, 0.2, 0.5), seed)
    parts = [split.train, split.valid, split.test]
    ids = [sorted(id(f) for f in part) for part in parts]
    all_ids = sorted(x for chunk in ids for x in chunk)
    assert all_ids == sorted(id(f) for f in facts)
    assert len(split.train) == int(0.3 * n)
    assert len(split.valid) == int(0.2 * n)
    _split_runs[0] += 1


def test_invariant_suites_ran_at_scale():
    cid = "5 structural-invariants"
    counts = {"storage-capacity": _capacity_runs[0],
              "selected-kb-cap": _cap_runs[0],
              "score-monotonicity": _mono_runs[0],
              "split-partition": _split_runs[0]}
    low = {k: v for k, v in counts.items() if v < 1000}
    conclude(cid, not low,
             " ".join(f"{k}={v}" for k, v in counts.items()))


# ---------------------------------------------------------------------------
# criterion 6: bitwise-deterministic metrics under a fixed config + seed
# ---------------------------------------------------------------------------


def test_metrics_reproduce_identically(tmp_path):
    cid = "6 determinism"
    cfg = RunConfig(dataset="family", seed=23, embedding_dim=4,
                    pretrain_epochs=5, templates_implies=1, templates_inverse=1,
                    templates_chain=1, batch_goals=8, batches_per_iteration=2,
                    iterations=2, gen_width=3, gen_epochs=2, beam=10,
                    min_score=0.2, valid_subsample=8, prover_negatives=1,
                    patience=100)
    rows = []
    for run in ("one", "two"):
        ds = load_dataset("family", default_data_dir(), cfg.seed)
        run_training(dataclasses.replace(cfg), ds, tmp_path / run)
        with (tmp_path / run / "metrics.csv").open(newline="") as fh:
            rows.append(list(csv.reader(fh)))
    a, b = rows
    same_shape = len(a) == len(b) and all(len(x) == len(y)
                                          for x, y in zip(a, b))
    ok = same_shape
    diffs = []
    if same_shape:
        wall_col = a[0].index("attp_ms")
        for ra, rb in zip(a, b):
            for i, (va, vb) in enumerate(zip(ra, rb)):
                if i != wall_col and va != vb:
                    ok = False
                    diffs.append(f"{ra[0]}:{a[0][i]} {va}!={vb}")
    conclude(cid, ok,
             "; ".join(diffs[:4]) or
             f"{len(a) - 1} metric rows bit-identical (wall-clock column excluded)")
