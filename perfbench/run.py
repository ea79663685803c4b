"""Benchmark for the evolmpnn package: seeded workloads, timed end to end.

    python3 perfbench/run.py --workload mpnn-gb1 --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20

For each workload this script writes a family CSV, a split CSV and a run
config made from ``--seed`` into ``.perfbench/<workload>-seed<n>-trace<t>/``
at the repository root, then runs ``worker.py`` on them in a fresh process
(one workload per process, one after another) with BLAS threads capped at
the CPU count through ``EVOLMPNN_THREADS``. ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` is a separate traced run that reports the
per-layer metrics. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

Lines before it give each metric with its unit, the error rate, the final
train loss and test Spearman (reported, not gated) and the machine: CPU
count, numpy and BLAS build, Python version.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
CHILD_TIMEOUT_S = 170
LAMBDA = 2
MAX_MUTATIONS = 10

# Family shapes follow the paper's regime; "pool" is the exact number of
# proteins within LAMBDA substitutions of the wild type (the wild type
# included), so every seed gives the same amount of work. "round" is how
# many calls of each phase one round of the timed run makes: most of the
# time goes to training, and each phase gets enough calls for a median.
WORKLOADS = {
    # GB1-like: M = 8192, ~5% of the family in the lambda-vs-rest pool
    # (434 -> 390 train rows); keyed anchor hashing dominates training.
    "mpnn-gb1": {
        "m": 8192,
        "n": 32,
        "pool": 434,
        "model": {"variant": "evolmpnn", "d": 32, "heads": 2, "l_r": 1, "l_p": 1},
        "train": {"batch_size": 32, "epochs": 1},
        "plan": {
            "diag_rows": 512,
            "round": {"setup_s": 4, "train_rows_per_s": 2, "eval_rows_per_s": 1, "diag_s": 1},
        },
    },
    # Full batch, no anchor sampling: dense M x M products and k-NN set-up.
    "gnn-fullbatch": {
        "m": 2048,
        "n": 32,
        "pool": 856,
        "model": {"variant": "evolgnn", "d": 32, "heads": 2, "l_r": 1, "l_p": 1,
                  "knn_k": 10},
        "train": {"batch_size": 1024, "epochs": 1},
        "plan": {
            "diag_rows": 512,
            "round": {"setup_s": 1, "train_rows_per_s": 3, "eval_rows_per_s": 2, "diag_s": 1},
        },
    },
    # Transductive all-pairs attention per mini-batch, then checkpoint I/O,
    # grouped eval and both distortion diagnostics over the whole family.
    "former-minibatch-diag": {
        "m": 1024,
        "n": 32,
        "pool": 214,
        "model": {"variant": "evolformer", "d": 32, "heads": 2, "l_r": 1, "l_p": 1},
        "train": {"batch_size": 64, "epochs": 1},
        "plan": {
            "diag_rows": 1024,
            "round": {"setup_s": 20, "train_rows_per_s": 3, "eval_rows_per_s": 4, "diag_s": 1},
        },
    },
}


def generate(spec: dict, seed: int, workdir: Path) -> None:
    """Write family.csv, split.csv, run.json and plan.json for one workload."""
    import numpy as np
    from evolmpnn import data

    rng = np.random.default_rng(seed)
    m, n, pool = spec["m"], spec["n"], spec["pool"]
    counts = np.concatenate(
        [
            rng.integers(1, LAMBDA + 1, size=pool - 1),
            rng.integers(LAMBDA + 1, MAX_MUTATIONS + 1, size=m - pool),
        ]
    )
    rng.shuffle(counts)
    letters = len(data.ALPHABET)
    encoded = np.empty((m, n), dtype=np.int64)
    encoded[0] = rng.integers(0, letters, size=n)
    for i, count in enumerate(counts, start=1):
        encoded[i] = encoded[0]
        positions = rng.choice(n, size=count, replace=False)
        # A shift of 1..19 letters always changes the residue, so ``count`` is
        # the exact distance to the wild type.
        shift = rng.integers(1, letters, size=count)
        encoded[i, positions] = (encoded[0, positions] + shift) % letters
    spec_landscape = data.LandscapeSpec(
        n=n,
        m=m,
        max_mutations=MAX_MUTATIONS,
        additive=rng.normal(size=(n, letters)),
        epistasis=[
            (int(p), int(q), data.ALPHABET[a], data.ALPHABET[b], float(w))
            for p, q, a, b, w in zip(
                rng.integers(0, n, 12),
                rng.integers(0, n, 12),
                rng.integers(0, letters, 12),
                rng.integers(0, letters, 12),
                rng.normal(0, 2, 12),
            )
        ],
    )
    targets = data.landscape_value(spec_landscape, encoded) + rng.normal(0, 0.1, m)
    width = len(str(m - 1))
    records = [
        data.ProteinRecord(
            "WT" if i == 0 else f"M{i:0{width}d}",
            "".join(data.ALPHABET[c] for c in encoded[i]),
            (float(targets[i]),),
            i == 0,
        )
        for i in range(m)
    ]
    family = data.Family(records)
    data.save_family(family, workdir / "family.csv")
    data.save_split(
        data.split_lambda_vs_rest(family, LAMBDA, valid_frac=0.1, seed=seed),
        workdir / "split.csv",
    )
    epochs = spec["train"]["epochs"]
    run_config = {
        "model": {**spec["model"], "dtype": "float32"},
        "train": {**spec["train"], "lr": 5e-3, "patience": epochs, "seed": seed},
        "data": {"family": "family.csv", "split": "split.csv"},
    }
    (workdir / "run.json").write_text(json.dumps(run_config, indent=1), encoding="utf-8")
    (workdir / "plan.json").write_text(json.dumps(spec["plan"], indent=1), encoding="utf-8")


def run_workload(name: str, seed: int, seconds: int, trace: int) -> dict:
    workdir = WORK / f"{name}-seed{seed}-trace{trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    generate(WORKLOADS[name], seed, workdir)
    threads = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ, EVOLMPNN_THREADS=threads)
    cmd = [
        sys.executable,
        str(Path(__file__).with_name("worker.py")),
        "--dir", str(workdir),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    # subprocess.run kills and reaps the worker if it overruns.
    subprocess.run(cmd, env=env, check=True, timeout=CHILD_TIMEOUT_S)
    return json.loads((workdir / "result.json").read_text(encoding="utf-8"))


def report(name: str, seed: int, result: dict) -> dict:
    """Print the human-readable lines; return the contract's JSON object."""
    env = result["environment"]
    print(
        f"{name} seed={seed} nproc={env['nproc']} threads={env['threads']} "
        f"numpy={env['numpy']} blas={env['blas']} python={env['python']}"
    )
    for metric, value in result["metrics"].items():
        print(f"{name} {metric} = {value:.6g} {result['units'][metric]}")
    rate = result["failed"] / result["attempted"] if result["attempted"] else float("nan")
    print(f"{name} error_rate = {rate:.6g} ({result['failed']} of {result['attempted']} operations)")
    quality = result["quality"]
    print(
        f"{name} not gated: final_train_loss={quality['final_train_loss']} "
        f"test_spearman={quality['test_spearman']}"
    )
    if "train_self_share" in result:
        top = list(result["train_self_share"].items())[:5]
        print(f"{name} self-time share of training.train_s: "
              + ", ".join(f"{k}={v:.3f}" for k, v in top))
    for error in result["errors"][:5]:
        print(f"{name} failure: {error.strip()}", file=sys.stderr)
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            metric: {"value": value, "unit": result["units"][metric]}
            for metric, value in result["metrics"].items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="evolmpnn benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "evolmpnn" / "__init__.py").is_file():
        print(f"benchmark needs the evolmpnn sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    docs = {}
    for name in names:
        docs[name] = report(name, args.seed, run_workload(name, args.seed, args.seconds, args.trace))
    print(json.dumps(docs[names[0]] if len(names) == 1 else docs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
