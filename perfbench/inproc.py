"""In-process probes of selprover: traced run, batched-vs-stream check, kernels.

    python3 perfbench/inproc.py trace    --config CFG.json --result OUT.json --spans SPANS.json
    python3 perfbench/inproc.py contract --config CFG.json --checkpoint DIR --seed N --result OUT.json
    python3 perfbench/inproc.py micro    --repeats 7 --result OUT.json
    python3 perfbench/inproc.py env      --result OUT.json

``trace`` runs ``selprover train`` and then ``selprover eval`` through
``selprover.cli.run_command`` in this process, with every layer wrapped from
outside: the wrappers replace public functions on the modules that call them
and record spans (name, start, end, parent) in memory. Very frequent leaf
calls (the negative sampler, ``accel`` kernels, per-query scoring) are
aggregated instead of kept one by one; their time still counts as child time
of the enclosing span. Self time is a span's duration minus the time of the
calls nested in it.

``contract`` loads a trained checkpoint and checks that the closed-form
``BatchedEvaluator`` scores equal unbeamed ``prove_goal`` scores on a sample
of test queries, over a view of sampled facts and rules, all drawn from
``--seed``.

``micro`` times each ``accel`` kernel on the numpy path over fixed
synthetic inputs (the cases of ``benchmarks/bench_kernels.py``). ``env``
reports the Python, numpy and BLAS versions and whether numba imports.

Each writes one JSON object to ``--result``. Nothing here changes the
program: only module attributes are rebound, in this process.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from selprover import (accel, autodiff, cli, datasets, em, kb,  # noqa: E402
                       pretrain, prover, scoring)
from selprover.config import load_config  # noqa: E402

# batched-vs-stream check: unbeamed search grows steeply with the view and
# with how much of it unifies (minutes per query on the whole demo KB), so
# both scorers see a small sampled view
CONTRACT_FACTS = 10
CONTRACT_RULES = 6
CONTRACT_QUERIES = 2
CONTRACT_CANDIDATES = 2  # per query side, besides the true argument

KERNELS = ("kernel_matrix", "sweep_scores", "scatter_max", "strict_group",
           "maxmin_matvec", "maxmin_vecmat", "maxmin_matmat")


class Tracer:
    """Nested wall-clock spans kept in memory, with per-name totals."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.total: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.counts: dict[str, float] = defaultdict(float)
        # self time per (outermost span, span name)
        self.self_time: dict[tuple[str, str], float] = defaultdict(float)
        # open frames: [name, start, child time, span index or -1]
        self._stack: list[list] = []
        self.phase = "estep"

    def inside(self, name: str) -> bool:
        return any(frame[0] == name for frame in self._stack)

    def wrap(self, name, fn, record: bool = True, after=None):
        """``fn`` timed as a span. ``name`` may be a callable picked at call
        time. Unrecorded spans only add to the totals. ``after`` sees
        (tracer, args, kwargs, result)."""
        tracer = self

        def wrapper(*args, **kwargs):
            label = name() if callable(name) else name
            index = -1
            if record:
                index = len(tracer.spans)
                parent = next((f[3] for f in reversed(tracer._stack)
                               if f[3] >= 0), -1)
                tracer.spans.append((label, 0.0, 0.0, parent))
            frame = [label, time.perf_counter(), 0.0, index]
            tracer._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                dur = end - frame[1]
                if record:
                    tracer.spans[index] = (label, frame[1], end,
                                           tracer.spans[index][3])
                    tracer.durations[label].append(dur)
                root = tracer._stack[0][0] if tracer._stack else label
                tracer.self_time[root, label] += dur - frame[2]
                tracer.total[label] += dur
                tracer.calls[label] += 1
                if tracer._stack:
                    tracer._stack[-1][2] += dur
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return wrapper


def _patch(module, attr: str, wrapper_factory) -> None:
    setattr(module, attr, wrapper_factory(getattr(module, attr)))


def install(tr: Tracer) -> None:
    """Rebind every traced entry point on the module that calls it."""
    def step_name(kind: str):
        return lambda: (f"pretrain.{kind}" if tr.inside("pretrain.pretrain")
                        else f"{tr.phase}.{kind}")

    def set_phase(phase: str):
        def after(t, args, kwargs, result):
            t.phase = phase
        return after

    def count(key: str, fn):
        def after(t, args, kwargs, result):
            t.counts[key] += fn(args, kwargs, result)
        return after

    def on_goal(t, args, kwargs, result):
        sign = "pos" if kwargs.get("exclude_fact", -1) >= 0 else "neg"
        t.counts[f"goals_{sign}"] += 1
        t.counts[f"proved_{sign}"] += result.score > 0.0

    def on_trained(t, args, kwargs, state):
        for key in ("traversed", "established"):
            t.counts[key] = sum(row[key] for row in state.metrics_log)

    def on_select(t, args, kwargs, result):
        t.counts["select_calls"] += 1
        t.counts["subkb_frac_sum"] += result.n_items / max(1, args[0].n_items)

    # commands and set-up
    _patch(cli, "cmd_train", lambda f: tr.wrap("cli.train", f))
    _patch(cli, "cmd_eval", lambda f: tr.wrap("cli.eval", f))
    _patch(cli, "load_dataset", lambda f: tr.wrap("datasets.load", f))
    _patch(cli, "run_training",
           lambda f: tr.wrap("em.run_training", f, after=on_trained))
    _patch(cli, "template_rules", lambda f: tr.wrap("prover.template_rules", f))
    kb.KnowledgeBase.__init__ = tr.wrap("kb.build", kb.KnowledgeBase.__init__)
    # pretraining
    _patch(em, "initialize", lambda f: tr.wrap("em.initialize", f))
    _patch(em, "pretrain_embeddings", lambda f: tr.wrap("pretrain.pretrain", f))
    _patch(pretrain, "_sample_negative",
           lambda f: tr.wrap("pretrain.sampler", f, record=False))
    _patch(em, "build_templates", lambda f: tr.wrap("prover.build_templates", f))
    _patch(em, "init_generator", lambda f: tr.wrap("generator.init", f))
    # autodiff: backward/clip/adam belong to whichever phase ran last
    autodiff.Tape.backward = tr.wrap(step_name("backward"),
                                     autodiff.Tape.backward)
    _patch(autodiff, "adam_step", lambda f: tr.wrap(step_name("adam"), f))
    _patch(em, "adam_step", lambda f: tr.wrap(step_name("adam"), f))
    _patch(em, "clip_gradients", lambda f: tr.wrap(step_name("clip"), f))
    value_init = autodiff.Value.__init__

    def counted_init(self, *args, **kwargs):
        tr.counts["values"] += 1
        value_init(self, *args, **kwargs)

    autodiff.Value.__init__ = counted_init
    # EM iteration
    _patch(em, "em_iteration", lambda f: tr.wrap("em.iteration", f))
    _patch(em, "kernel_tables", lambda f: tr.wrap("prover.tables", f))
    _patch(em, "generate_predicates",
           lambda f: tr.wrap("generator.generate", f))
    _patch(em, "select_kbs", lambda f: tr.wrap("em.select", f, after=on_select))
    _patch(em, "training_loss", lambda f: tr.wrap(
        "prover.training_loss", f, after=set_phase("estep")))
    _patch(prover, "prove_goal",
           lambda f: tr.wrap("prover.prove_goal", f, after=on_goal))
    _patch(em, "nns_complete", lambda f: tr.wrap(
        "generator.nns", f, after=count("nns_added",
                                        lambda a, k, r: len(r))))
    _patch(em, "update_relation_storage",
           lambda f: tr.wrap("generator.storage", f))
    _patch(em, "train_generator_step", lambda f: tr.wrap(
        "generator.mstep", f, after=set_phase("mstep")))
    _patch(em, "save_checkpoint", lambda f: tr.wrap("em.checkpoint", f))
    _patch(em, "write_metrics_csv", lambda f: tr.wrap("em.metrics_csv", f))
    # validation and test ranking
    ev = scoring.BatchedEvaluator
    ev.__init__ = tr.wrap("scoring.build", ev.__init__)
    ev.score_tails = tr.wrap("scoring.score", ev.score_tails, record=False)
    ev.score_heads = tr.wrap("scoring.score", ev.score_heads, record=False)
    for mod in (em, cli):
        _patch(mod, "evaluate_ranking", lambda f: tr.wrap(
            "evaluate.rank", f, after=count("queries",
                                            lambda a, k, r: len(a[0]))))
    for name in KERNELS:
        _patch(accel, name, lambda f, n=name: tr.wrap(f"accel.{n}", f,
                                                      record=False))


def percentile_tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with >= 10 samples
    beyond it; the median when there are fewer than 20 samples."""
    n = len(samples)
    if n == 0:
        return 50.0, 0.0
    pct = 50.0
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (1.0 - p / 100.0) >= 10.0:
            pct = p
            break
    return pct, float(np.percentile(samples, pct))


def layer_metrics(tr: Tracer, train_s: float, eval_s: float) -> dict:
    t, c, k = tr.total, tr.calls, tr.counts
    goal_ms = [d * 1e3 for d in tr.durations["prover.prove_goal"]]
    tail_pct, tail = percentile_tail(goal_ms)
    iters = tr.durations["em.iteration"] or [0.0]
    traversed = k["traversed"]
    out = {
        "datasets.load_s": tr.durations["datasets.load"][0],
        "pretrain.wall_s": t["pretrain.pretrain"],
        "pretrain.backward_s": t["pretrain.backward"],
        "pretrain.sampler_calls": c["pretrain.sampler"],
        "pretrain.sampler_s": t["pretrain.sampler"],
        "autodiff.values": k["values"],
        "autodiff.adam_s": sum(t[f"{p}.adam"]
                               for p in ("pretrain", "estep", "mstep")),
        "prover.estep_s": t["prover.training_loss"],
        "prover.tables_s": t["prover.tables"],
        "prover.goals": c["prover.prove_goal"],
        "prover.goal_ms.p50": (statistics.median(goal_ms) if goal_ms
                               else 0.0),
        "prover.goal_ms.tail": tail,
        "prover.goal_ms.tail_pct": tail_pct,
        "prover.traversed": traversed,
        "prover.established": k["established"],
        "prover.utilization": (k["established"] / traversed if traversed
                               else 0.0),
        "prover.proved_pos_frac": k["proved_pos"] / max(1, k["goals_pos"]),
        "prover.proved_neg_frac": k["proved_neg"] / max(1, k["goals_neg"]),
        "estep.backward_s": t["estep.backward"],
        "generator.generate_s": t["generator.generate"],
        "em.select_s": t["em.select"],
        "em.subkb_frac": k["subkb_frac_sum"] / max(1, k["select_calls"]),
        "generator.nns_s": t["generator.nns"],
        "generator.nns_added": k["nns_added"],
        "generator.storage_s": t["generator.storage"],
        "generator.mstep_s": t["generator.mstep"],
        "mstep.backward_s": t["mstep.backward"],
        "scoring.build_s": t["scoring.build"],
        "scoring.builds": c["scoring.build"],
        "evaluate.rank_s": t["evaluate.rank"],
        "evaluate.queries": k["queries"],
        "em.iteration_s.p50": statistics.median(iters),
        "em.iteration_s.max": max(iters),
        "em.checkpoint_s": t["em.checkpoint"],
        "trace.train_s": train_s,
        "trace.eval_s": eval_s,
    }
    for name in KERNELS:
        out[f"accel.{name}.calls"] = c[f"accel.{name}"]
        out[f"accel.{name}_s"] = t[f"accel.{name}"]
    return {key: float(v) for key, v in out.items()}


def cmd_trace(args: argparse.Namespace) -> dict:
    logging.disable(logging.INFO)
    tr = Tracer()
    install(tr)
    codes = {c: cli.run_command([c, "--config", args.config])
             for c in ("train", "eval")}
    # a command's traced wall time counts from the end of its dataset load
    wall = {}
    for command in codes:
        root = next((i for i, span in enumerate(tr.spans)
                     if span[0] == f"cli.{command}"), None)
        loaded = [span[2] for span in tr.spans
                  if span[0] == "datasets.load" and span[3] == root]
        wall[command] = (tr.spans[root][2] - loaded[0]
                         if root is not None and loaded else math.nan)
    self_s: dict[str, dict[str, float]] = defaultdict(dict)
    for (root, name), value in tr.self_time.items():
        self_s[root][name] = value
    metrics = layer_metrics(tr, wall["train"], wall["eval"])
    # self times of the layers under train, set-up excluded; they fall short
    # of trace.train_s only by cmd_train's own statements after loading
    metrics["trace.attributed_s"] = sum(
        v for name, v in self_s["cli.train"].items()
        if name not in ("cli.train", "datasets.load"))
    with open(args.spans, "w") as fh:
        json.dump({"columns": ["name", "start_s", "end_s", "parent"],
                   "spans": tr.spans,
                   "aggregated": {n: {"calls": tr.calls[n], "total_s": t}
                                  for n, t in tr.total.items()}}, fh)
    return {"codes": codes, "metrics": metrics, "self_s": self_s}


def cmd_contract(args: argparse.Namespace) -> dict:
    cfg = load_config(args.config)
    ds = datasets.load_dataset(cfg.dataset, cfg.data_dir, cfg.seed,
                               cfg.split_ratios)
    rules = prover.template_rules(ds.vocab, cfg)
    background = list(ds.train) + (list(ds.valid)
                                   if cfg.eval_kb == "train+valid" else [])
    base = kb.KnowledgeBase(ds.vocab, background, rules)
    rng = np.random.default_rng(args.seed)
    queries = [ds.test[int(i)] for i in rng.choice(
        len(ds.test), min(CONTRACT_QUERIES, len(ds.test)), replace=False)]
    # facts that mention a query's constants, so that some proofs survive
    consts = [c for q in queries for c in q.args]
    pool = np.flatnonzero(np.isin(base.fact_subj, consts)
                          | np.isin(base.fact_obj, consts))
    facts = rng.choice(pool, min(CONTRACT_FACTS, len(pool)), replace=False)
    rule_ids = rng.choice(base.n_rules, min(CONTRACT_RULES, base.n_rules),
                          replace=False)
    view = kb.KBView(base, np.sort(facts), tuple(sorted(map(int, rule_ids))))
    store = autodiff.ParameterStore.load(Path(args.checkpoint) / "store.npz")
    ev = scoring.BatchedEvaluator(view, store, cfg.max_depth, cfg.min_score)
    pconf = prover.ProverConfig(max_depth=cfg.max_depth,
                                min_score=cfg.min_score, beam=0)
    tables = prover.kernel_tables(store)
    n_const = ds.vocab.n_constants
    checked = mismatches = proved = 0
    worst = 0.0
    for query in queries:
        rel, (s, o) = query.pred, query.args
        others = [int(c) for c in rng.choice(n_const, CONTRACT_CANDIDATES,
                                             replace=False)]
        sides = ((ev.score_tails(rel, s), o, lambda c: (s, c)),
                 (ev.score_heads(rel, o), s, lambda c: (c, o)))
        for closed, true_arg, goal_args in sides:
            for c in (true_arg, *others):
                got = prover.prove_goal(kb.Atom(rel, goal_args(c)), view,
                                        store, pconf, tables=tables).score
                diff = abs(got - closed[c])
                worst = max(worst, diff)
                mismatches += diff > 1e-9
                checked += 1
                proved += got > 0.0
    return {"checked": checked, "proved": proved,
            "mismatches": int(mismatches),
            "max_abs_diff": worst}


def micro_cases(rng: np.random.Generator) -> dict:
    """The kernel cases and sizes of benchmarks/bench_kernels.py."""
    F, C, D, P, N = 20000, 128, 64, 400, 1200
    emb = rng.normal(0.0, 0.4, size=(P, D))
    cemb = rng.normal(0.0, 0.4, size=(C, D))
    Kc = accel.kernel_matrix(cemb, cemb)
    psim = rng.uniform(0.05, 1.0, size=F)
    asim = rng.uniform(0.05, 1.0, size=F)
    keys = rng.integers(0, C, size=F)
    grp = rng.integers(0, C, size=F)
    M = rng.uniform(0.0, 1.0, size=(N, N))
    Nm = rng.uniform(0.0, 1.0, size=(N, N))
    v = rng.uniform(0.0, 1.0, size=N)
    A = rng.uniform(0.0, 1.0, size=(N // 4, N // 4))
    B = rng.uniform(0.0, 1.0, size=(N // 4, N // 4))
    return {
        "kernel_matrix": lambda: accel.kernel_matrix(emb, emb),
        "sweep_scores": lambda: accel.sweep_scores(0.9, psim, asim, asim,
                                                   0.1, 17),
        "scatter_max": lambda: accel.scatter_max(keys, psim, C),
        "strict_group": lambda: accel.strict_group(psim, keys, grp, Kc),
        "maxmin_matvec": lambda: accel.maxmin_matvec(M, v),
        "maxmin_vecmat": lambda: accel.maxmin_vecmat(v, M),
        "maxmin_matmat": lambda: accel.maxmin_matmat(A, B),
        "kernel_matmat_pipeline": lambda: accel.maxmin_matmat(
            accel.kernel_matrix(cemb, cemb), Nm[:C, :C]),
    }


def cmd_micro(args: argparse.Namespace) -> dict:
    accel.USE_NUMBA = False
    out = {}
    for name, fn in micro_cases(np.random.default_rng(0)).items():
        fn()
        times = []
        for _ in range(args.repeats):
            t0 = time.perf_counter()
            fn()
            times.append((time.perf_counter() - t0) * 1e3)
        out[f"accel.micro.{name}_ms"] = statistics.median(times)
    return {"metrics": out, "numba": "unmeasured (numba not importable)"
            if not accel.HAVE_NUMBA else "unmeasured (numpy path only)"}


def cmd_env(args: argparse.Namespace) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "blas": f"{blas['name']} {blas['version']}",
            "numba": "available" if accel.HAVE_NUMBA
            else "not importable; numba path unmeasured"}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("trace")
    p.add_argument("--config", required=True)
    p.add_argument("--spans", required=True)
    p = sub.add_parser("contract")
    p.add_argument("--config", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--seed", type=int, required=True)
    p = sub.add_parser("micro")
    p.add_argument("--repeats", type=int, default=7)
    sub.add_parser("env")
    for p in sub.choices.values():
        p.add_argument("--result", required=True)
    args = parser.parse_args()
    fn = {"trace": cmd_trace, "contract": cmd_contract, "micro": cmd_micro,
          "env": cmd_env}[args.command]
    Path(args.result).write_text(json.dumps(fn(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
