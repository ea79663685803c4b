"""The timed program for one benchmark workload, in a process of its own.

run.py writes the inputs (family CSV, split CSV, run config, plan) into a
directory and starts this script on it. Everything the package computes
here comes from those files, read through its public API.

    python3 perfbench/worker.py --dir <inputs> --seconds 20 --trace 0

Writes ``result.json`` (and ``spans.json`` with ``--trace 1``) into the
same directory.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

# cli first: it applies EVOLMPNN_THREADS before numpy loads its BLAS.
from evolmpnn import cli  # noqa: E402
import numpy as np  # noqa: E402
from evolmpnn import data, evaluation, model, training  # noqa: E402
from tracer import PER_LAYER_UNITS, Tracer  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_rows_per_s": "rows/s",
    "eval_rows_per_s": "rows/s",
    "diag_s": "s",
    "peak_mem_mb": "MB",
}
# Tracing overhead: traced minus untraced train() throughput, with its base.
TRACE_UNITS = {
    "trace.untraced_train_rows_per_s": "rows/s",
    "trace.train_rows_per_s_delta": "rows/s",
}
MIN_ROUNDS = 2
GROUP_EDGES = [1, 3, 5, 8]


class Workload:
    """One workload's inputs and the operations the benchmark times.

    Every operation counts toward ``attempted``; one whose output check
    fails, or that raises, counts toward ``failed`` as well.
    """

    def __init__(self, workdir: Path):
        self.workdir = workdir
        run = cli.load_run_config(workdir / "run.json")
        self.plan = json.loads((workdir / "plan.json").read_text(encoding="utf-8"))
        self.config: model.ModelConfig = run["model"]
        self.train_config: training.TrainConfig = run["train"]
        self.paths = run["data"]
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.family = self.split = self.graph = None
        self.signature = None
        self.train_loss = None
        self.test_spearman = None

    def _record(self, ops: int, ok: bool, what: str) -> None:
        self.attempted += ops
        if not ok:
            self.failed += ops
            self.errors.append(what)

    def _guard(self, ops: int, what: str, fn):
        """Run ``fn``; an exception counts its ``ops`` as failed."""
        try:
            return fn()
        except Exception:
            self._record(ops, False, f"{what}: {traceback.format_exc(limit=3)}")
            return None

    def setup(self) -> float:
        """Input files on disk to a state where training can start."""
        started = time.perf_counter()
        self.family = data.load_family(self.paths["family"])
        self.split = data.load_split(self.paths["split"], self.family)
        self.graph = (
            data.knn_graph(self.family, self.config.knn_k)
            if self.config.variant == "evolgnn"
            else None
        )
        seconds = time.perf_counter() - started
        self.train_rows = self.split.rows(self.family, "train")
        self.test_rows = self.split.rows(self.family, "test")
        self.train_ids = [self.family.ids[i] for i in self.train_rows]
        return seconds

    def train(self):
        """One train() call; returns (params, training rows per second)."""
        steps_per_epoch = math.ceil(len(self.train_rows) / self.train_config.batch_size)
        planned = self.train_config.epochs * steps_per_epoch

        def run():
            started = time.perf_counter()
            params, report = training.train(
                self.family, self.split, self.config, self.train_config, graph=self.graph
            )
            seconds = time.perf_counter() - started
            losses = [e.train_loss for e in report.epochs]
            ok = bool(losses) and all(math.isfinite(x) for x in losses)
            signature = report.signature()
            if self.signature is None:
                self.signature = signature
            same = signature == self.signature
            self._record(
                len(losses) * steps_per_epoch,
                ok and same,
                "train: non-finite loss" if not ok else "train: report differs between calls",
            )
            self.train_loss = losses[-1] if losses else None
            return params, len(losses) * len(self.train_rows) / seconds

        return self._guard(planned, "train", run) or (None, None)

    def evaluate(self, params):
        """One evaluate() on the test rows; returns (metrics doc, rows per second)."""

        def run():
            started = time.perf_counter()
            metrics = evaluation.evaluate(
                self.family,
                self.split,
                params,
                self.config,
                tag="test",
                group_edges=GROUP_EDGES,
                graph=self.graph,
            )
            seconds = time.perf_counter() - started
            ok = metrics.spearman is not None and all(
                math.isfinite(x) for x in (metrics.spearman, metrics.mse)
            )
            self._record(1, ok, "evaluate: non-finite metrics")
            self.test_spearman = metrics.spearman
            return metrics.to_json(include_runtime=False), len(self.test_rows) / seconds

        return self._guard(1, "evaluate", run) or (None, None)

    def checkpoint_roundtrip(self, params) -> list[float]:
        """save -> load gives bitwise-equal predictions and repeatable evaluate().

        Returns the rows-per-second of the two evaluate() calls it makes.
        """
        path = self.workdir / "model.ckpt"

        def predict(p):
            return evaluation.predict(
                self.family,
                p,
                self.config,
                rows=self.test_rows,
                train_ids=self.train_ids,
                graph=self.graph,
            )

        def run():
            cli.save_checkpoint(
                params,
                cli.run_config_json(self.config, self.train_config, self.paths),
                path,
            )
            loaded, _ = cli.load_checkpoint(path)
            before, after = predict(params), predict(loaded)
            ok = (
                before.dtype == after.dtype
                and np.array_equal(before, after)
                and bool(np.all(np.isfinite(after)))
            )
            self._record(1, ok, "checkpoint: predictions changed or non-finite")
            return loaded

        loaded = self._guard(1, "checkpoint", run)
        if loaded is None:
            return []
        first, rate1 = self.evaluate(loaded)
        second, rate2 = self.evaluate(loaded)
        self._record(
            1,
            first is not None and first == second,
            "evaluate: loaded checkpoint gave different metric documents",
        )
        return [r for r in (rate1, rate2) if r is not None]

    def diagnostics(self, params):
        """Distortion of the trained z and of the landmark reference embedder.

        Runs on the first ``diag_rows`` proteins (row 0 is the wild type):
        the diagnostic holds an M x M x 2d tensor, which only the smallest
        family can afford in full.
        """
        rows = list(range(min(self.plan["diag_rows"], self.family.m)))

        def run():
            family = (
                self.family
                if len(rows) == self.family.m
                else data.Family([self.family.records[i] for i in rows])
            )
            started = time.perf_counter()
            pred = model.forward(
                self.family,
                params,
                self.config,
                rows=rows,
                train_ids=self.train_ids,
                graph=self.graph,
            )
            learned = evaluation.distortion(pred.z, family)
            base = data.pairwise_hamming(family.encoded).astype(float)
            embedded = evaluation.bourgain_embedding(base, seed=0)
            reference = evaluation.distortion(embedded, family, metric="hamming")
            seconds = time.perf_counter() - started
            for label, report in (("learned", learned), ("reference", reference)):
                self._record(
                    1, math.isfinite(report.alpha), f"distortion: {label} alpha not finite"
                )
            return seconds

        return self._guard(2, "diagnostics", run)


def median(values):
    return statistics.median(values) if values else float("nan")


def room_for_another(since: float, done: int, end: float) -> bool:
    """Whether one more unit of work, at the mean pace since ``since``, ends by ``end``."""
    now = time.perf_counter()
    return now + (now - since) / done <= end


def timed_run(w: Workload, seconds: float) -> dict:
    """End-to-end metrics, each the median over the calls that fill ``seconds``.

    The run cycles through rounds of the user's path in a fixed order:
    set-up, train(), evaluate() and the diagnostics, each called as many
    times per round as the workload's plan says. Interleaving the phases
    spreads every metric's samples over the whole run, so a slow stretch on
    a shared machine does not land on one metric only. After MIN_ROUNDS
    rounds the run stops at the first call that would end past ``seconds``.
    The checkpoint round-trip runs once, after the first train().
    """
    params = None

    def train():
        nonlocal params
        params, rate = w.train()
        return rate

    calls = {
        "setup_s": w.setup,
        "train_rows_per_s": train,
        "eval_rows_per_s": lambda: w.evaluate(params)[1],
        "diag_s": lambda: w.diagnostics(params),
    }
    order = [name for name, n in w.plan["round"].items() for _ in range(n)]
    samples = {name: [] for name in calls}
    used = dict.fromkeys(calls, 0.0)
    end = time.perf_counter() + seconds
    for i in itertools.count():
        name = order[i % len(order)]
        done = len(samples[name])
        if i >= MIN_ROUNDS * len(order) and time.perf_counter() + used[name] / done > end:
            break
        started = time.perf_counter()
        samples[name].append(calls[name]())
        used[name] += time.perf_counter() - started
        if name == "train_rows_per_s" and done == 0 and params is not None:
            samples["eval_rows_per_s"] += w.checkpoint_roundtrip(params)
    metrics = {
        name: median([v for v in values if v is not None]) for name, values in samples.items()
    }
    metrics["peak_mem_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {"metrics": metrics, "units": END_TO_END_UNITS, "samples": samples}


def traced_run(w: Workload, seconds: float) -> dict:
    """Per-layer metrics from one traced pass over the workload.

    The pass does a fixed amount of work (one set-up, one train() call, one
    evaluate(), one checkpoint round-trip, one diagnostics pass), so its
    counters repeat exactly for a given seed. The remaining time alternates
    untraced and traced train() calls to measure the tracer's overhead.
    """
    started = time.perf_counter()
    tracer = Tracer()
    tracer.install()
    try:
        w.setup()
        params, _ = w.train()
        if params is not None:
            w.evaluate(params)
            w.checkpoint_roundtrip(params)
            w.diagnostics(params)
    finally:
        tracer.uninstall()
    (w.workdir / "spans.json").write_text(json.dumps(tracer.dump()), encoding="utf-8")

    plain, traced = [], []
    since = time.perf_counter()
    while not plain or room_for_another(since, len(plain), started + seconds):
        plain.append(w.train()[1])
        probe = Tracer()
        probe.install()
        try:
            traced.append(w.train()[1])
        finally:
            probe.uninstall()
    plain = [r for r in plain if r is not None]
    traced = [r for r in traced if r is not None]
    metrics = tracer.per_layer()
    metrics["trace.untraced_train_rows_per_s"] = median(plain)
    metrics["trace.train_rows_per_s_delta"] = median(traced) - median(plain)
    return {
        "metrics": metrics,
        "units": {**PER_LAYER_UNITS, **TRACE_UNITS},
        "train_self_share": tracer.train_shares(),
        "spans": len(tracer.spans),
    }


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "threads": os.environ.get("EVOLMPNN_THREADS"),
        "numpy": np.__version__,
        "blas": blas,
        "python": platform.python_version(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dir", required=True, type=Path)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    w = Workload(args.dir)
    result = (traced_run if args.trace else timed_run)(w, args.seconds)
    result.update(
        {
            "correct": w.failed == 0,
            "attempted": w.attempted,
            "failed": w.failed,
            "errors": w.errors,
            "quality": {"final_train_loss": w.train_loss, "test_spearman": w.test_spearman},
            "environment": environment(),
        }
    )
    (args.dir / "result.json").write_text(json.dumps(result, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
