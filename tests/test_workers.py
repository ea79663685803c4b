"""The worker pool behind ``data.map_blocks``: its safety rules, the
``EVOLMPNN_THREADS`` setting, and outputs that do not depend on the number
of workers."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import evolmpnn
from evolmpnn import data, model, residue_encoder
from evolmpnn.data import knn_graph, pairwise_hamming
from evolmpnn.evaluation import distortion, evaluate
from evolmpnn.model import ModelConfig, forward, init_params
from evolmpnn.residue_encoder import NumericsError
from evolmpnn.training import TrainConfig, TrainingError, train

from test_evaluation import paper_scale_family
from test_training import small_problem

SRC = Path(__file__).resolve().parents[1] / "src"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def within(seconds, fn):
    """fn()'s result, or the exception it raised, from a thread that must
    finish within ``seconds``."""
    box = []

    def run():
        try:
            box.append(fn())
        except Exception as err:  # handed back to the test
            box.append(err)

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(seconds)
    assert not worker.is_alive(), f"did not finish within {seconds} s"
    return box[0]


@pytest.fixture
def two_workers(monkeypatch):
    """A two-thread pool in place of the module pool; yields the list of
    blocks submitted to it."""
    pool = ThreadPoolExecutor(2)
    submitted = []
    submit = pool.submit

    def counting_submit(fn, *args):
        submitted.append(args)
        return submit(fn, *args)

    monkeypatch.setattr(pool, "submit", counting_submit)
    monkeypatch.setattr(data, "_POOL", pool)
    yield submitted
    # Cancelling queued blocks frees a worker that waits on one of them.
    pool.shutdown(wait=False, cancel_futures=True)


@pytest.fixture
def small_blocks(monkeypatch):
    """Blocks of a few rows, so every blocked loop below has several."""
    monkeypatch.setattr(residue_encoder, "_ENCODE_BLOCK_BYTES", 5 * 8 * 8**2)
    monkeypatch.setattr(data, "_BLOCK_BYTES", 4096)


def serial_and_pooled(monkeypatch, submitted, fn):
    """fn() with no pool, then on the ``two_workers`` pool, which must
    receive blocks."""
    pool = data._POOL
    monkeypatch.setattr(data, "_POOL", None)
    serial = fn()
    monkeypatch.setattr(data, "_POOL", pool)
    pooled = fn()
    assert len(submitted) >= 2
    return serial, pooled


class TestMapBlocks:
    def test_results_keep_the_order_of_starts(self, two_workers):
        starts = list(range(0, 40, 3))
        assert data.map_blocks(lambda s: s * s, starts) == [s * s for s in starts]
        assert len(two_workers) == len(starts)

    def test_single_block_runs_in_the_calling_thread(self, two_workers):
        names = data.map_blocks(lambda s: threading.current_thread().name, [0])
        assert names == [threading.current_thread().name]
        assert two_workers == []

    def test_nested_call_runs_serially_in_the_worker(self, two_workers):
        # Two outer blocks hold both workers; a nested map that queued its
        # blocks behind them would wait forever.
        def outer(start):
            return data.map_blocks(
                lambda inner: (start, inner, threading.current_thread().name), range(3)
            )

        result = within(10, lambda: data.map_blocks(outer, range(2)))
        assert [[(s, i) for s, i, _ in block] for block in result] == [
            [(s, i) for i in range(3)] for s in range(2)
        ]
        for block in result:
            names = {name for _, _, name in block}
            assert len(names) == 1 and names.pop().startswith("ThreadPoolExecutor")
        assert len(two_workers) == 2

    def test_block_exception_reaches_the_caller_unchanged(self, two_workers):
        raised = NumericsError("non-finite output in block 2")

        def fn(start):
            if start == 2:
                raise raised
            return start

        assert within(10, lambda: data.map_blocks(fn, range(5))) is raised

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_validation_divergence_in_a_worker_is_a_training_error(
        self, monkeypatch, two_workers, small_blocks
    ):
        fam, split = small_problem()
        encode = model._encode_rows
        failed_in = []

        def diverging_encode(family, active, leaves, config):
            # Inference blocks (constant leaves) after the first one diverge.
            if not leaves["phi_pos"].requires_grad and active[0] > 0:
                failed_in.append(threading.current_thread().name)
                raise NumericsError("non-finite output in residue layer 0")
            return encode(family, active, leaves, config)

        monkeypatch.setattr(model, "_encode_rows", diverging_encode)
        config = ModelConfig(d=8, heads=2, l_r=1, l_p=1)
        err = within(60, lambda: train(fam, split, config, TrainConfig(epochs=2)))
        assert isinstance(err, TrainingError)
        assert "diverged at epoch 0 during validation" in str(err)
        assert failed_in and all(n.startswith("ThreadPoolExecutor") for n in failed_in)


class TestThreadSetting:
    @pytest.mark.parametrize("raw,expected", [("", None), ("1", 1), ("3", 3)])
    def test_positive_integer_or_unset(self, monkeypatch, raw, expected):
        monkeypatch.setenv("EVOLMPNN_THREADS", raw)
        assert evolmpnn.worker_threads() == expected

    @pytest.mark.parametrize("raw", ["0", "-2", "two", "1.5", " 2", "+2", "2_0", "٣"])
    def test_anything_else_names_the_variable(self, monkeypatch, raw):
        monkeypatch.setenv("EVOLMPNN_THREADS", raw)
        with pytest.raises(ValueError, match="EVOLMPNN_THREADS must be a positive integer"):
            evolmpnn.worker_threads()

    @staticmethod
    def run_python(code: str, threads: str | None) -> subprocess.CompletedProcess:
        env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
        env.pop("EVOLMPNN_THREADS", None)
        if threads is not None:
            env["EVOLMPNN_THREADS"] = threads
        env["PYTHONPATH"] = str(SRC)
        return subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )

    PROBE = (
        "import json, os, threading\n"
        "from evolmpnn import cli, data\n"
        "import numpy as np\n"
        "data.pairwise_hamming(np.zeros((2048, 4), dtype=np.int8))\n"
        "print(json.dumps({'blas': [os.environ.get(v) for v in %r],\n"
        "    'pool': None if data._POOL is None else data._POOL._max_workers,\n"
        "    'threads': threading.active_count()}))\n" % (BLAS_VARS,)
    )

    def test_unset_starts_no_thread_and_leaves_blas_alone(self):
        done = self.run_python(self.PROBE, None)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == {"blas": [None] * 3, "pool": None, "threads": 1}

    def test_set_sizes_the_pool_and_pins_blas_to_one_thread(self):
        done = self.run_python(self.PROBE, "2")
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == {"blas": ["1"] * 3, "pool": 2, "threads": 3}

    def test_one_thread_runs_serially(self):
        done = self.run_python(self.PROBE, "1")
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == {"blas": ["1"] * 3, "pool": None, "threads": 1}

    def test_invalid_value_fails_the_import_naming_the_variable(self):
        done = self.run_python("import evolmpnn.cli", "0")
        assert done.returncode != 0
        assert "EVOLMPNN_THREADS must be a positive integer, got '0'" in done.stderr


class TestWorkerCountInvariance:
    """Every blocked loop gives bitwise the same output on one thread and two."""

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("variant", ["evolmpnn", "evolgnn", "evolformer"])
    def test_forward(self, monkeypatch, two_workers, small_blocks, variant, dtype):
        fam, split = small_problem()
        config = ModelConfig(variant=variant, d=8, heads=2, l_r=1, l_p=2, knn_k=3, dtype=dtype)
        params = init_params(config, fam.n, seed=2)
        graph = knn_graph(fam, 3) if variant == "evolgnn" else None
        train_ids = [fam.ids[i] for i in split.rows(fam, "train")]
        rows = split.rows(fam, "test")[::-1] + [0, 0]

        def run():
            pred = forward(fam, params, config, rows=rows, train_ids=train_ids, graph=graph)
            return pred.y_hat.tobytes() + pred.z.tobytes()

        serial, pooled = serial_and_pooled(monkeypatch, two_workers, run)
        assert serial == pooled

    @pytest.mark.parametrize("variant", ["evolmpnn", "evolformer"])
    def test_evaluate_document(self, monkeypatch, two_workers, small_blocks, variant):
        fam, split = small_problem()
        config = ModelConfig(variant=variant, d=8, heads=2, l_r=1, l_p=2, dtype="float32")
        params = init_params(config, fam.n, seed=3)

        def run():
            metrics = evaluate(fam, split, params, config, group_edges=[1, 2, 4])
            return json.dumps(metrics.to_json(include_runtime=False), sort_keys=True)

        serial, pooled = serial_and_pooled(monkeypatch, two_workers, run)
        assert serial == pooled

    def test_distortion(self, monkeypatch, two_workers, small_blocks):
        fam = paper_scale_family(50, n=8, seed=1)
        base = pairwise_hamming(fam.encoded)
        emb = np.random.default_rng(3).normal(size=(fam.m, 5))
        collapsed = emb.copy()
        far = int(np.argmax(base[0]))
        collapsed[far] = collapsed[0]

        def run():
            return [
                (report.alpha, report.pairs)
                for e in (emb, collapsed)
                for report in (distortion(e, fam), distortion(e, base_matrix=base))
            ]

        serial, pooled = serial_and_pooled(monkeypatch, two_workers, run)
        assert serial == pooled
        assert np.isinf(serial[2][0]) and np.isfinite(serial[0][0])

    def test_pairwise_hamming_and_knn_edges(self, monkeypatch, two_workers, small_blocks):
        fam = paper_scale_family(60, n=8, seed=2)

        def run():
            return pairwise_hamming(fam.encoded).tobytes(), knn_graph(fam, 4).edges.tobytes()

        serial, pooled = serial_and_pooled(monkeypatch, two_workers, run)
        assert serial == pooled
