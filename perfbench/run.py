"""End-to-end and per-layer benchmark of ``selprover train`` and ``eval``.

    python3 perfbench/run.py --workload large-default --seed 7 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all

Run from the repository root; the program is taken from ``src/``. Each
repetition runs the real CLI in a fresh process, ``train`` and then ``eval``
(two to six times) on the checkpoint it wrote, one command at a time (closed
loop, one client), with BLAS pinned to one thread. Repetitions continue until ``--seconds`` is
used up (at least two), and every timing is the median over them.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs one
untraced repetition, then one traced in-process run (``inproc.py trace``)
and the ``accel`` micro-benchmarks, and reports the per-layer metrics.
``--workload all`` does both for every workload.

Each run checks the program's outputs: every command exits 0,
``metrics.csv`` and ``eval.csv`` are complete and finite, the deterministic
``metrics.csv`` columns and ``eval.csv`` are identical across repetitions
(and under tracing), the printed MRR matches ``eval.csv``, and the batched
scorer equals the unbeamed stream prover on a sample of test queries drawn
from ``--seed``. Every failed check counts in ``failed``.

The program's own seed is fixed at 7, as in the README; ``--seed`` only
draws the check's sample. Search size swings by more than ten times between
config seeds, so runs whose medians must agree cannot each pick their own.
Work counts printed next to the timings show what a different seed does.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. Artifacts land in ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
BLAS_THREADS = 1
# The program's seed, as in the README. Search size changes more than tenfold
# between seeds, so runs whose medians must agree all use this one.
CONFIG_SEED = 7
HARD_LIMIT_S = 165.0

# README quick-start config
DEMO = {"dataset": "family", "embedding_dim": 4, "pretrain_epochs": 15,
        "templates_implies": 2, "templates_inverse": 2, "templates_chain": 2,
        "beam": 12, "min_score": 0.2, "iterations": 5, "batch_goals": 8,
        "batches_per_iteration": 3, "gen_width": 4, "gen_epochs": 4,
        "valid_subsample": 16, "prover_negatives": 1}
LARGE = {"dataset": "family-large", "iterations": 2,
         "batches_per_iteration": 4, "valid_subsample": 64}

# config, metrics.csv columns allowed to be NaN, smoke-test sizes
WORKLOADS = {
    "demo-fullkb": dict(
        config={**DEMO, "baseline_full_kb": True, "iterations": 2},
        nan_ok=("generator_loss",),
        tiny={"iterations": 1, "batches_per_iteration": 1}),
    "large-default": dict(
        config=LARGE,
        nan_ok=("generator_loss",),
        tiny={"pretrain_epochs": 2, "iterations": 1,
              "batches_per_iteration": 2, "valid_subsample": 8}),
    "large-prove": dict(
        config={**LARGE, "embedding_dim": 4, "iterations": 3,
                "batches_per_iteration": 8},
        nan_ok=(),
        tiny={"iterations": 1, "batches_per_iteration": 2,
              "valid_subsample": 8}),
}
END_TO_END = {"setup_s": "s", "train_s": "s", "eval_s": "s",
              "peak_rss_mb": "MB", "test_mrr": "ratio"}
# printed next to them, not part of the result line
EXTRA_UNITS = {"train_cpu_s": "s"}
# evals per train: at least 2, more while they add up to under EVAL_MIN_S,
# so that short evals still give enough samples for a steady median
EVALS_MAX = 6
EVAL_MIN_S = 1.0
WALL_COLUMNS = ("attp_ms",)
EVAL_ROWS = ("mrr", "hits@1", "hits@3", "hits@10")


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMBA_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env.pop("PYTHONPATH", None)
    return env


class Run:
    """One workload's measurement: commands, checks and their failures."""

    def __init__(self, name: str, seed: int, tiny: bool,
                 deadline: float) -> None:
        self.name = name
        self.seed = seed
        self.spec = WORKLOADS[name]
        self.tiny = tiny
        self.deadline = deadline
        self.dir = WORK / name
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        cfg = {**self.spec["config"], **(self.spec["tiny"] if tiny else {}),
               "seed": CONFIG_SEED, "data_dir": str(self.dir / "no-data")}
        self.config = cfg
        self.attempted = 0
        self.failures: list[str] = []
        self.reps: list[dict] = []

    # -- bookkeeping ---------------------------------------------------------

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def child(self, args: list[str]) -> subprocess.CompletedProcess | None:
        """Run a Python child to completion; None if it outlived the run."""
        try:
            return subprocess.run([sys.executable, *args], cwd=ROOT,
                                  env=child_env(), capture_output=True,
                                  text=True, timeout=max(1.0, self.remaining()))
        except subprocess.TimeoutExpired:
            return None

    def inproc(self, command: str, *args: str) -> tuple[dict | None, str]:
        """Run ``inproc.py COMMAND``; its JSON result (None on failure) and
        how the child ended."""
        result = self.dir / f"{command}.json"
        proc = self.child([str(HERE / "inproc.py"), command, *args,
                           "--result", str(result)])
        ok = proc is not None and proc.returncode == 0 and result.is_file()
        return (json.loads(result.read_text()) if ok else None), status(proc)

    # -- one repetition through the CLI --------------------------------------

    def cli(self, command: str, cfg_path: Path, tag: str) -> dict | None:
        stamp = self.dir / f"{tag}.stamp.json"
        t0 = time.monotonic()
        proc = self.child([str(HERE / "clirun.py"), str(stamp), command,
                           "--config", str(cfg_path)])
        t1 = time.monotonic()
        ok = proc is not None and proc.returncode == 0 and stamp.is_file()
        if not self.check(ok, f"{tag}: {status(proc)}"):
            if proc is not None:
                (self.dir / f"{tag}.stderr.txt").write_text(proc.stderr)
            return None
        marks = json.loads(stamp.read_text())
        return {"setup_s": marks["loaded"] - t0, "run_s": t1 - marks["loaded"],
                "cpu_s": marks["done_cpu"] - marks["loaded_cpu"],
                "peak_rss_mb": marks["peak_rss_kb"] / 1024.0,
                "stdout": proc.stdout}

    def rep(self) -> None:
        k = len(self.reps)
        out_root = self.dir / f"rep{k}"
        cfg_path = self.dir / f"rep{k}.config.json"
        cfg_path.write_text(json.dumps({**self.config,
                                        "output_root": str(out_root)}))
        t0 = time.monotonic()
        train = self.cli("train", cfg_path, f"rep{k}.train")
        out = run_dir(out_root)
        rep = {"train": train, "evals": [], "out": out,
               "metrics_csv": self.check_metrics_csv(out, f"rep{k}")}
        eval_s = 0.0
        for j in range(EVALS_MAX):
            if j >= 2 and eval_s >= EVAL_MIN_S:
                break
            evals = self.cli("eval", cfg_path, f"rep{k}.eval{j}")
            values = self.check_eval_csv(out, evals, f"rep{k}.eval{j}")
            rep["evals"].append(evals)
            if j == 0:
                rep["eval_csv"] = values
            else:
                self.check(values == rep["eval_csv"] and values is not None,
                           f"rep{k}.eval{j}: eval.csv differs from eval0")
            if evals is None:
                break
            eval_s += evals["run_s"]
        rep["wall"] = time.monotonic() - t0
        if self.reps:
            self.check_same(self.reps[0], rep, f"rep{k} vs rep0")
        self.reps.append(rep)

    # -- correctness gate ----------------------------------------------------

    def check_metrics_csv(self, out: Path | None, tag: str) -> list[dict] | None:
        path = out / "metrics.csv" if out else None
        if not self.check(path is not None and path.is_file(),
                          f"{tag}: no metrics.csv"):
            return None
        with path.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        want = self.config["iterations"]
        bad = [f"{r.get('iteration')}:{c}" for r in rows for c, v in r.items()
               if c not in self.spec["nan_ok"] and not finite(v)]
        self.check(len(rows) == want and not bad,
                   f"{tag}: metrics.csv has {len(rows)}/{want} rows, "
                   f"non-finite {bad}")
        return rows

    def check_eval_csv(self, out: Path | None, evals: dict | None,
                       tag: str) -> dict | None:
        path = out / "eval.csv" if out else None
        if not self.check(path is not None and path.is_file(),
                          f"{tag}: no eval.csv"):
            return None
        with path.open(newline="") as fh:
            values = {r["metric"]: r["value"] for r in csv.DictReader(fh)}
        self.check(tuple(values) == EVAL_ROWS
                   and all(finite(v) for v in values.values()),
                   f"{tag}: eval.csv incomplete or not finite: {values}")
        if evals is not None and "mrr" in values:
            printed = [line.split()[1] for line in evals["stdout"].splitlines()
                       if line.startswith("mrr ")]
            self.check(printed == [f"{float(values['mrr']):.4f}"],
                       f"{tag}: printed MRR {printed} != eval.csv "
                       f"{values['mrr']}")
        return values

    def check_same(self, a: dict, b: dict, tag: str) -> None:
        self.check(deterministic(a["metrics_csv"]) == deterministic(
            b["metrics_csv"]) and a["metrics_csv"] is not None,
                   f"{tag}: deterministic metrics.csv columns differ")
        self.check(a["eval_csv"] == b["eval_csv"] and a["eval_csv"] is not None,
                   f"{tag}: eval.csv differs")

    def check_contract(self) -> dict | None:
        out = self.reps[0]["out"] if self.reps else None
        ckpt = out / "checkpoints" / "best" if out else None
        if not self.check(ckpt is not None and ckpt.is_dir(),
                          "contract: no checkpoint"):
            return None
        found, how = self.inproc("contract", "--config",
                                 str(self.dir / "rep0.config.json"),
                                 "--checkpoint", str(ckpt),
                                 "--seed", str(self.seed))
        self.check(found is not None and found["mismatches"] == 0
                   and found["checked"] > 0,
                   f"contract: batched != stream: {found or how}")
        if found:
            print(f"[{self.name}] batched vs stream: {found['checked']} scores "
                  f"({found['proved']} nonzero), {found['mismatches']} "
                  f"mismatches, max |diff| {found['max_abs_diff']:.3g}")
        return found

    # -- measurement loops ---------------------------------------------------

    def measure(self, seconds: float, min_reps: int) -> None:
        start = time.monotonic()
        while len(self.reps) < min_reps or (
                time.monotonic() - start
                + statistics.median(r["wall"] for r in self.reps) <= seconds):
            if self.remaining() < 2 * max((r["wall"] for r in self.reps),
                                          default=0.0):
                break
            self.rep()

    def end_to_end(self) -> dict:
        """Per metric: (median, samples)."""
        trains = [r["train"] for r in self.reps if r["train"] is not None]
        evals = [e for r in self.reps for e in r["evals"] if e is not None]
        samples = {
            "setup_s": [c["setup_s"] for c in trains + evals],
            "train_s": [c["run_s"] for c in trains],
            "eval_s": [c["run_s"] for c in evals],
            "peak_rss_mb": [c["peak_rss_mb"] for c in trains],
            "train_cpu_s": [c["cpu_s"] for c in trains],
        }
        out = {k: (statistics.median(xs) if xs else math.nan, xs)
               for k, xs in samples.items()}
        mrr = self.reps[0]["eval_csv"] if self.reps else None
        out["test_mrr"] = (float(mrr["mrr"]) if mrr else math.nan, [])
        return out

    def traced(self) -> dict | None:
        cfg_path = self.dir / "trace.config.json"
        cfg_path.write_text(json.dumps({**self.config, "output_root":
                                        str(self.dir / "trace")}))
        found, how = self.inproc("trace", "--config", str(cfg_path), "--spans",
                                 str(self.dir / "trace_spans.json"))
        if not self.check(found is not None
                          and found["codes"] == {"train": 0, "eval": 0},
                          f"trace: {found['codes'] if found else how}"):
            return None
        out = run_dir(self.dir / "trace")
        rep = {"metrics_csv": self.check_metrics_csv(out, "trace"),
               "eval_csv": self.check_eval_csv(out, None, "trace")}
        if self.reps:
            self.check_same(self.reps[0], rep, "traced vs untraced")
        return found

    def micro(self) -> dict | None:
        found, how = self.inproc("micro", "--repeats",
                                 "3" if self.tiny else "7")
        self.check(found is not None, f"micro: {how}")
        return found


# -- helpers -----------------------------------------------------------------


def status(proc: subprocess.CompletedProcess | None) -> str:
    return "timed out" if proc is None else f"exit {proc.returncode}"


def finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except (TypeError, ValueError):
        return False


def deterministic(rows: list[dict] | None) -> list[dict] | None:
    if rows is None:
        return None
    return [{c: v for c, v in r.items() if c not in WALL_COLUMNS}
            for r in rows]


def run_dir(out_root: Path) -> Path | None:
    """The single ``<config hash>/`` directory a command wrote."""
    dirs = [p for p in out_root.iterdir() if p.is_dir()] \
        if out_root.is_dir() else []
    return dirs[0] if len(dirs) == 1 else None


def quartiles(xs: list[float]) -> str:
    if len(xs) < 2:
        return f"n={len(xs)}"
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return f"n={len(xs)} q1={q1:.4g} q3={q3:.4g}"


def commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else ref
    return ref


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(run: Run) -> dict:
    probe, how = run.inproc("env")
    run.check(probe is not None, f"env: {how}")
    return {"commit": commit(), "src_sha256": source_digest(),
            "nproc": os.cpu_count(), **(probe or {}),
            "blas_threads": BLAS_THREADS,
            "workload": run.name, "seed": run.seed, "config": run.config}


# -- reporting ---------------------------------------------------------------

WORK_COUNTS = ("prover.traversed", "prover.established", "prover.goals",
               "pretrain.sampler_calls", "autodiff.values", "em.subkb_frac",
               "generator.nns_added", "scoring.builds", "evaluate.queries")


def print_e2e(name: str, e2e: dict, run: Run) -> None:
    print(f"[{name}] end-to-end ({len(run.reps)} repetitions, medians)")
    for key, (value, xs) in e2e.items():
        unit = END_TO_END.get(key) or EXTRA_UNITS[key]
        print(f"  {key:<14} {value:>12.6g} {unit:<6} {quartiles(xs)}")
    print(f"  {'failed_frac':<14} {len(run.failures) / max(1, run.attempted):>12.6g}"
          f" ratio   ({len(run.failures)} of {run.attempted} operations)")


def print_layers(name: str, layers: dict, self_s: dict, numba: str) -> None:
    print(f"[{name}] per-layer (one traced run; work counts first; accel.micro "
          f"on the numpy path, numba {numba})")
    for key in (*WORK_COUNTS, *(k for k in layers if k not in WORK_COUNTS)):
        print(f"  {key:<40} {layers[key]:>14.6g} {layer_unit(key)}")
    train, attributed = layers["trace.train_s"], layers["trace.attributed_s"]
    print(f"[{name}] traced train_s {train:.4f} s = self times "
          f"{attributed:.4f} s + unattributed {train - attributed:.4f} s; "
          f"tracing overhead {layers['trace.overhead_s']:+.4f} s")
    print(f"[{name}] self time by span under train (s):")
    for span, value in sorted(self_s.get("cli.train", {}).items(),
                              key=lambda kv: -kv[1]):
        print(f"  {span:<40} {value:>10.4f}")


def layer_unit(key: str) -> str:
    if key.endswith("_ms") or (".goal_ms." in key and not key.endswith("pct")):
        return "ms"
    if key.endswith("_s") or key.startswith("em.iteration_s"):
        return "s"
    if key.endswith(("_frac", "utilization")):
        return "ratio"
    if key.endswith("_pct"):
        return "%"
    return "count"


def run_workload(name: str, args: argparse.Namespace, trace: int,
                 deadline: float) -> tuple[Run, dict]:
    run = Run(name, args.seed, args.tiny, deadline)
    env = environment(run)
    print("[env] " + json.dumps(env, sort_keys=True))
    metrics: dict = {}
    samples: dict = {}
    if trace == 0:
        run.measure(args.seconds, min_reps=2)
        run.check_contract()
        e2e = run.end_to_end()
        print_e2e(name, e2e, run)
        metrics = {k: {"value": e2e[k][0], "unit": unit}
                   for k, unit in END_TO_END.items()}
        samples = {k: xs for k, (_, xs) in e2e.items()}
    else:
        run.measure(0.0, min_reps=1)
        run.check_contract()
        traced = run.traced()
        micro = run.micro()
        untraced = run.end_to_end()["train_s"][0]
        if traced is not None and micro is not None:
            layers = {**traced["metrics"], **micro["metrics"],
                      "trace.overhead_s": traced["metrics"]["trace.train_s"]
                      - untraced}
            print_layers(name, layers, traced["self_s"], micro["numba"])
            metrics = {k: {"value": v, "unit": layer_unit(k)}
                       for k, v in layers.items()}
    for failure in run.failures:
        print(f"[{name}] FAILED {failure}")
    (run.dir / "result.json").write_text(json.dumps(
        {"env": env, "trace": trace, "attempted": run.attempted,
         "failures": run.failures, "metrics": metrics, "samples": samples},
        indent=1))
    return run, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=7,
                        help="benchmark seed: draws the contract-check sample")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes; numbers are not comparable")
    args = parser.parse_args()
    if not (SRC / "selprover" / "cli.py").is_file():
        print(f"error: no selprover sources under {SRC}", file=sys.stderr)
        return 2
    start = time.monotonic()
    if args.workload == "all":
        plan = [(w, t) for w in WORKLOADS for t in (0, 1)]
    else:
        plan = [(args.workload, args.trace)]
    attempted = failed = 0
    merged: dict = {}
    for name, trace in plan:
        # a single run must end within HARD_LIMIT_S; "all" gets that per step
        deadline = time.monotonic() + HARD_LIMIT_S
        run, metrics = run_workload(name, args, trace, deadline)
        attempted += run.attempted
        failed += len(run.failures)
        prefix = f"{name}." if args.workload == "all" else ""
        merged.update({prefix + k: v for k, v in metrics.items()})
    print(f"[total] {time.monotonic() - start:.1f} s wall")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": merged}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
