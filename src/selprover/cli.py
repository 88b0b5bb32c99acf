"""Command-line entry point.

Subcommands: ``pretrain`` (embeddings only), ``train`` (full run with
checkpoints and metrics), ``eval`` (filtered ranking metrics for a saved
checkpoint), ``compare-baseline`` (proving efficiency with and without KB
selection), and ``inspect-storage`` (render a relation-storage file).

Every run writes its artifacts under ``<output_root>/<config hash>/`` next
to a ``config.json`` echo, so a run is reproducible from that file alone.
Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import logging
import sys
from pathlib import Path

import numpy as np

from .autodiff import ParameterStore
from .config import ConfigError, RunConfig, load_config
from .datasets import Dataset, DatasetError, load_dataset
from .em import TrainState, run_training
from .evaluate import EfficiencyRecord, compute_efficiency, compute_mrr_hits, \
    evaluate_ranking
from .generator import parse_storage_lines
from .kb import KnowledgeBase
from .pretrain import PRED_EMB, SLOT_EMB, pretrain_embeddings
from .prover import slot_count, template_rules
from .scoring import BatchedEvaluator

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="JSON config file; flags override its values")
    common.add_argument("--dataset", help="dataset name under the data directory")
    common.add_argument("--data-dir", dest="data_dir", metavar="PATH")
    common.add_argument("--seed", type=int)
    common.add_argument("--output-root", dest="output_root", metavar="PATH")
    common.add_argument("--set", action="append", metavar="KEY=VALUE",
                        dest="assignments", help="any config field, repeatable")
    common.add_argument("-v", "--verbose", action="store_true")

    parser = argparse.ArgumentParser(
        prog="selprover",
        description="Differentiable prover with learned KB selection.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pretrain", parents=[common],
                       help="train fact embeddings and save them")
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("train", parents=[common],
                       help="full training run: checkpoints + metrics CSV")
    p.add_argument("--iterations", type=int)
    p.add_argument("--baseline-full-kb", action="store_true", default=None,
                   dest="baseline_full_kb",
                   help="prove against the full KB instead of selected sub-KBs")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", parents=[common],
                       help="filtered MRR/HITS for a checkpoint on the test split")
    p.add_argument("--checkpoint", metavar="DIR",
                   help="checkpoint directory (default: this config's best)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("compare-baseline", parents=[common],
                       help="efficiency of selected vs full-KB proving")
    p.add_argument("--iterations", type=int)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("inspect-storage", parents=[common],
                       help="print a relation-storage file as a table")
    p.add_argument("--checkpoint", metavar="PATH", required=True,
                   help="checkpoint directory or storage file")
    p.set_defaults(func=cmd_inspect)
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    overrides: dict = {}
    for item in args.assignments or ():
        key, sep, value = item.partition("=")
        if not sep or not key:
            raise ConfigError(f"--set needs KEY=VALUE, got {item!r}")
        overrides[key] = value
    for name in ("dataset", "data_dir", "seed", "output_root", "iterations",
                 "baseline_full_kb"):
        value = getattr(args, name, None)
        if value is not None:
            overrides[name] = value
    cfg = load_config(args.config, overrides)
    if not cfg.dataset:
        raise ConfigError("a dataset is required (--dataset NAME or config file)")
    return cfg


def prepare_out_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.output_root) / cfg.config_hash()
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_text(cfg.to_json() + "\n")
    return out


def _load(cfg: RunConfig, split: str = "train") -> Dataset:
    """The configured dataset, whose ``split`` the command reads and so must
    hold facts."""
    ds = load_dataset(cfg.dataset, cfg.data_dir, cfg.seed, cfg.split_ratios)
    log.info("%s", ds.summary())
    if not getattr(ds, split):
        raise DatasetError(f"{ds.name}: the {split} split is empty")
    return ds


def cmd_pretrain(args: argparse.Namespace) -> int:
    cfg = config_from_args(args)
    ds = _load(cfg)
    out = prepare_out_dir(cfg)
    store, losses = pretrain_embeddings(ds.train, ds.vocab, cfg,
                                        np.random.default_rng(cfg.seed))
    store.save(out / "embeddings.npz")
    with (out / "pretrain_loss.csv").open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("epoch", "loss"))
        writer.writerows((i, repr(l)) for i, l in enumerate(losses, start=1))
    print(f"pretrained {store[PRED_EMB].shape[0]} predicates over "
          f"{cfg.pretrain_epochs} epochs (final loss {losses[-1]:.6f})")
    print(f"artifacts: {out}")
    return EXIT_OK


def cmd_train(args: argparse.Namespace) -> int:
    cfg = config_from_args(args)
    ds = _load(cfg)
    out = prepare_out_dir(cfg)
    state = run_training(cfg, ds, out)
    best = max((r["valid_mrr"] for r in state.metrics_log
                if not np.isnan(r["valid_mrr"])), default=float("nan"))
    print(f"trained {state.iteration} iterations on {cfg.dataset} "
          f"(best valid MRR {best:.4f})")
    print(f"artifacts: {out}")
    return EXIT_OK


def _scorer_for(cfg: RunConfig, ds: Dataset, store: ParameterStore
                ) -> BatchedEvaluator:
    rules = template_rules(ds.vocab, cfg)
    background = list(ds.train)
    if cfg.eval_kb == "train+valid":
        background += ds.valid
    kb = KnowledgeBase(ds.vocab, background, rules)
    if store[PRED_EMB].shape[0] != ds.vocab.n_predicates \
            or SLOT_EMB not in store \
            or store[SLOT_EMB].shape[0] != slot_count(rules):
        raise ConfigError(
            "checkpoint does not match this dataset/template configuration; "
            "evaluate with the config the run was trained under")
    return BatchedEvaluator(kb.full_view(), store, cfg.max_depth, cfg.min_score)


def cmd_eval(args: argparse.Namespace) -> int:
    cfg = config_from_args(args)
    # nothing lands on disk until the checkpoint and dataset both resolve
    out = Path(cfg.output_root) / cfg.config_hash()
    ckpt = Path(args.checkpoint) if args.checkpoint \
        else out / "checkpoints" / "best"
    if not (ckpt / "store.npz").is_file():
        raise ConfigError(f"no checkpoint at {ckpt}")
    ds = _load(cfg, "test")
    out = prepare_out_dir(cfg)
    store = ParameterStore.load(ckpt / "store.npz")
    scorer = _scorer_for(cfg, ds, store)
    known = frozenset(f.as_triple() for f in ds.all_facts)
    records = evaluate_ranking(ds.test, scorer, known)
    metrics = compute_mrr_hits(records)
    with (out / "eval.csv").open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("metric", "value"))
        writer.writerows((k, repr(v)) for k, v in metrics.items())
    for key, value in metrics.items():
        print(f"{key} {value:.4f}")
    print(f"artifacts: {out / 'eval.csv'}")
    return EXIT_OK


def _efficiency_records(state: TrainState) -> list[EfficiencyRecord]:
    return [EfficiencyRecord(int(r["traversed"]), int(r["established"]),
                             float(r["attp_ms"])) for r in state.metrics_log]


def cmd_compare(args: argparse.Namespace) -> int:
    cfg = config_from_args(args)
    ds = _load(cfg)
    out = prepare_out_dir(cfg)
    runs = {}
    for mode, flag in (("selected", False), ("full-kb", True)):
        mode_cfg = dataclasses.replace(cfg, baseline_full_kb=flag)
        log.info("running %s mode", mode)
        runs[mode] = run_training(mode_cfg, ds, out / mode)
    eff = compute_efficiency(_efficiency_records(runs["selected"]),
                             _efficiency_records(runs["full-kb"]))
    with (out / "efficiency.csv").open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("mode", "iteration", "traversed", "established",
                         "wall_ms"))
        for mode, state in runs.items():
            for r in state.metrics_log:
                writer.writerow((mode, r["iteration"], int(r["traversed"]),
                                 int(r["established"]), repr(r["attp_ms"])))
    print(f"attp_ratio {eff['attp_ratio']:.4f} (selected/full-kb wall time)")
    print(f"utilization {eff['utilization']:.4f} selected, "
          f"{eff['utilization_baseline']:.4f} full-kb")
    print(f"artifacts: {out / 'efficiency.csv'}")
    return EXIT_OK


def cmd_inspect(args: argparse.Namespace) -> int:
    path = Path(args.checkpoint)
    if path.is_dir():
        path = path / "storage.txt"
    if not path.is_file():
        raise ConfigError(f"no storage file at {path}")
    try:
        rows = parse_storage_lines(path.read_text())
    except ValueError as e:
        raise ConfigError(f"{path}: {e}") from None
    header = ("layer", "predicate", "score", "goal", "provenance")
    widths = [max([len(h)] + [len(r[i]) for r in rows])
              for i, h in enumerate(header)]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip())
    for r in rows:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    per_layer: dict[str, int] = {}
    for r in rows:
        per_layer[r[0]] = per_layer.get(r[0], 0) + 1
    layers = " ".join(f"{k}:{per_layer[k]}"
                      for k in sorted(per_layer, key=int)) or "none"
    print(f"{len(rows)} entries (per layer {layers})")
    return EXIT_OK


def run_command(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_OK if not e.code else int(e.code)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(asctime)s %(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except (ConfigError, DatasetError) as e:
        log.error("%s", e)
        return EXIT_USAGE
    except Exception:
        log.exception("%s failed", args.command)
        return EXIT_FAILURE


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))
