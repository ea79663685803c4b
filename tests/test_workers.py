"""The row-block layer behind ``data.map_blocks``: its blocks, its safety
rules, the size of its worker pool, and outputs that do not depend on the
number of workers."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from evolmpnn import autodiff as ad
from evolmpnn import data, model
from evolmpnn.data import knn_graph, pairwise_hamming
from evolmpnn.evaluation import distortion, evaluate
from evolmpnn.model import ModelConfig, build_forward, forward, init_params, mse_loss
from evolmpnn.residue_encoder import NumericsError
from evolmpnn.training import TrainConfig, TrainingError, train

from test_evaluation import paper_scale_family
from test_training import small_problem

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
VARIANTS = ("evolmpnn", "evolgnn", "evolformer")
DTYPES = ("float32", "float64")
CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


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
def two_workers(monkeypatch, fixed_workers):
    """The calling thread and the one thread of the ``fixed_workers`` pool,
    on every loop of two or more blocks; gives the list of the pool thread's
    turns that started, one per blocked loop it joined."""
    assert fixed_workers._max_workers == 1
    monkeypatch.setattr(data, "_MIN_BLOCKS_PER_WORKER", 1)
    started = []
    submit = fixed_workers.submit

    def counting_submit(fn, *args):
        def counted():
            started.append(threading.current_thread().name)
            return fn(*args)

        return submit(counted)

    monkeypatch.setattr(fixed_workers, "submit", counting_submit)
    return started


@pytest.fixture(params=["serial", "pooled"])
def workers(request, monkeypatch):
    """Every blocked loop run on one worker, with no pool, or on the two of
    ``two_workers``; gives that count and the list of the pool thread's
    turns that started."""
    if request.param == "serial":
        monkeypatch.setattr(data, "_POOL", None)
        return 1, []
    return 2, request.getfixturevalue("two_workers")


@pytest.fixture
def small_blocks(monkeypatch):
    """Blocks of a few rows, so every blocked loop below has several: 5
    proteins at N = 8, 6 query rows at M = 48, and 3 to 21 rows of the
    all-pairs loops."""
    monkeypatch.setattr(data, "_BLOCK_BYTES", 5 * 64 * 8**2)


def trained_bytes(variant: str, dtype: str) -> bytes:
    """Parameters and report signature after one epoch of 2 steps, l_p = 2."""
    fam, split = small_problem()
    config = ModelConfig(variant=variant, d=8, heads=2, l_r=1, l_p=2, knn_k=3, dtype=dtype)
    graph = knn_graph(fam, 3) if variant == "evolgnn" else None
    params, report = train(fam, split, config, TrainConfig(epochs=1, batch_size=16), graph=graph)
    signature = json.dumps(report.signature(), sort_keys=True).encode()
    return b"".join(v.tobytes() for v in params.tensors.values()) + signature


def serial_and_pooled(monkeypatch, submitted, fn):
    """fn() with no pool, then on the ``two_workers`` pool, whose thread
    must join the blocked loops."""
    pool = data._POOL
    monkeypatch.setattr(data, "_POOL", None)
    serial = fn()
    monkeypatch.setattr(data, "_POOL", pool)
    pooled = fn()
    assert submitted
    return serial, pooled


class TestMapBlocks:
    def test_blocks_cover_the_rows_in_order(self, workers):
        # With two workers the first two blocks wait for each other, so both
        # workers take one.
        count, started = workers
        meet = threading.Barrier(count, timeout=10)

        def fn(lo, hi):
            if lo < 6:
                meet.wait()
            return lo, hi, threading.current_thread().name

        blocks = within(10, lambda: data.map_blocks(fn, 40, data._BLOCK_BYTES // 3))
        assert [(lo, hi) for lo, hi, _ in blocks] == [
            (lo, min(lo + 3, 40)) for lo in range(0, 40, 3)
        ]
        assert len({name for _, _, name in blocks}) == count
        assert len(started) == count - 1

    def test_no_rows_run_one_empty_block(self, two_workers):
        assert data.map_blocks(lambda lo, hi: (lo, hi), 0, 1) == [(0, 0)]
        assert two_workers == []

    def test_single_block_runs_in_the_calling_thread(self, two_workers):
        names = data.map_blocks(lambda lo, hi: threading.current_thread().name, 5, 1)
        assert names == [threading.current_thread().name]
        assert two_workers == []

    def test_a_worker_needs_four_blocks(self, monkeypatch, two_workers):
        # 7 blocks run in the calling thread; of 8, the first two wait for
        # each other, so both workers take blocks.
        monkeypatch.setattr(data, "_MIN_BLOCKS_PER_WORKER", 4)
        meet = threading.Barrier(2, timeout=10)

        def names(n_rows):
            def fn(lo, hi):
                if n_rows == 8 and lo < 2:
                    meet.wait()
                return threading.current_thread().name

            return within(10, lambda: data.map_blocks(fn, n_rows, data._BLOCK_BYTES))

        seven = names(7)
        assert len(seven) == 7 and len(set(seven)) == 1 and two_workers == []
        eight = names(8)
        assert len(eight) == 8 and len(set(eight)) == 2 and len(two_workers) == 1

    def test_nested_call_runs_serially_in_the_worker(self, two_workers):
        # Two outer blocks hold both workers at once, one of them the pool's
        # only thread; a nested map that queued work for it would wait forever.
        one_row = data._BLOCK_BYTES
        meet = threading.Barrier(2, timeout=10)

        def outer(start, _):
            meet.wait()
            return data.map_blocks(
                lambda inner, _: (start, inner, threading.current_thread().name), 3, one_row
            )

        result = within(10, lambda: data.map_blocks(outer, 2, one_row))
        assert [[(s, i) for s, i, _ in block] for block in result] == [
            [(s, i) for i in range(3)] for s in range(2)
        ]
        names = [{name for _, _, name in block} for block in result]
        assert all(len(block) == 1 for block in names)
        assert sum(block.pop().startswith("ThreadPoolExecutor") for block in names) == 1
        assert len(two_workers) == 1

    def test_loop_in_a_serial_loops_block_runs_in_that_thread(self, two_workers):
        # The outer loop has one block, so it runs on one worker; the inner
        # loop's three blocks would get both workers were it not nested.
        one_row = data._BLOCK_BYTES

        def outer(lo, hi):
            inner = data.map_blocks(lambda lo, hi: threading.current_thread().name, 3, one_row)
            return threading.current_thread().name, inner

        def run():
            [(name, inner)] = data.map_blocks(outer, 1, one_row)
            return name, inner, getattr(data._in_block, "active", False)

        name, inner, still_nested = within(10, run)
        assert inner == [name] * 3
        assert two_workers == []
        assert not still_nested

    def test_block_exception_reaches_the_caller_unchanged(self, workers):
        count, started = workers
        raised = NumericsError("non-finite output in block 2")

        def fn(lo, hi):
            if lo == 2:
                raise raised
            return lo

        assert within(10, lambda: data.map_blocks(fn, 5, data._BLOCK_BYTES)) is raised
        assert len(started) == count - 1

    def test_consume_takes_results_in_block_order_and_few_at_once(self, workers):
        # While block 0 runs, a second worker finishes blocks 1-3 but does
        # not start block 4, 2W blocks past the first one not consumed; on
        # one worker no other block starts.
        count, pool_turns = workers
        expected = {1: 1, 2: 4}[count]
        started, consumed, seen = [], [], []

        def fn(lo, hi):
            started.append(lo)
            if lo == 0:
                deadline = time.monotonic() + 5
                while len(started) < expected and time.monotonic() < deadline:
                    time.sleep(0.01)
                time.sleep(0.1)  # time for one more block to start, were it allowed
                seen.append(len(started))
            return lo

        one_row = data._BLOCK_BYTES
        assert within(10, lambda: data.map_blocks(fn, 40, one_row, consume=consumed.append)) is None
        assert seen == [expected]
        assert consumed == list(range(40))
        assert len(pool_turns) == count - 1

    def test_consume_stops_at_the_first_failing_block(self, workers):
        count, started = workers
        raised = NumericsError("non-finite output in block 5")

        def fn(lo, hi):
            if lo == 5:
                raise raised
            return lo

        consumed = []
        run = lambda: data.map_blocks(fn, 20, data._BLOCK_BYTES, consume=consumed.append)  # noqa: E731
        assert within(10, run) is raised
        assert consumed == list(range(5))
        assert len(started) == count - 1

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_validation_divergence_in_a_worker_is_a_training_error(
        self, monkeypatch, two_workers, small_blocks
    ):
        fam, split = small_problem()
        encode = model._encode_rows
        failed_in = []
        diverged = threading.Event()

        def diverging_encode(family, active, leaves, config):
            # Inference blocks (constant leaves) diverge on the pool thread;
            # the calling thread's blocks wait until one has.
            if not leaves["phi_pos"].requires_grad:
                if threading.current_thread().name.startswith("ThreadPoolExecutor"):
                    failed_in.append(threading.current_thread().name)
                    diverged.set()
                    raise NumericsError("non-finite output in residue layer 0")
                diverged.wait(10)
            return encode(family, active, leaves, config)

        monkeypatch.setattr(model, "_encode_rows", diverging_encode)
        config = ModelConfig(d=8, heads=2, l_r=1, l_p=1)
        err = within(60, lambda: train(fam, split, config, TrainConfig(epochs=2)))
        assert isinstance(err, TrainingError)
        assert "diverged at epoch 0 during validation" in str(err)
        assert failed_in and all(n.startswith("ThreadPoolExecutor") for n in failed_in)


    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_training_divergence_in_a_worker_is_a_training_error(
        self, monkeypatch, two_workers, small_blocks
    ):
        fam, split = small_problem()
        encode = model._encode_rows
        failed_in = []
        diverged = threading.Event()

        def diverging_encode(family, active, leaves, config):
            # Training blocks (leaves that require gradients) diverge on the
            # pool thread; the calling thread's blocks wait until one has.
            if leaves["phi_pos"].requires_grad:
                if threading.current_thread().name.startswith("ThreadPoolExecutor"):
                    failed_in.append(threading.current_thread().name)
                    diverged.set()
                    raise NumericsError("non-finite output in residue layer 0")
                diverged.wait(10)
            return encode(family, active, leaves, config)

        monkeypatch.setattr(model, "_encode_rows", diverging_encode)
        config = ModelConfig(d=8, heads=2, l_r=1, l_p=1)
        err = within(60, lambda: train(fam, split, config, TrainConfig(epochs=2)))
        assert isinstance(err, TrainingError)
        assert str(err) == "diverged at epoch 0, batch 0: non-finite output in residue layer 0"
        assert failed_in and all(n.startswith("ThreadPoolExecutor") for n in failed_in)


class TestBlockSizes:
    def test_inference_blocks_keep_their_sizes(self, monkeypatch):
        # 65,536 // N^2 proteins per encode block and 65,536 // M evolformer
        # query rows per block: 256 and 44 of 300 proteins at N = 16, and
        # 218 and 82 of the 300 query rows.
        fam = paper_scale_family(300, n=16, seed=5)
        config = ModelConfig(variant="evolformer", d=4, heads=1, l_r=1, l_p=1)
        params = init_params(config, fam.n, seed=0)
        encoded, queried = [], []
        encode, softmax = model._encode_rows, ad.softmax_last

        def counting_encode(family, active, leaves, config):
            encoded.append(len(active))
            return encode(family, active, leaves, config)

        def counting_softmax(logits):
            if len(logits.shape) == 2:  # evolformer's; the residue stack's are 3-D
                queried.append(logits.shape[0])
            return softmax(logits)

        monkeypatch.setattr(model, "_encode_rows", counting_encode)
        monkeypatch.setattr(ad, "softmax_last", counting_softmax)
        forward(fam, params, config)
        assert sorted(encoded, reverse=True) == [65536 // 16**2, 300 - 65536 // 16**2]
        assert sorted(queried, reverse=True) == [65536 // 300, 300 - 65536 // 300]

    def test_training_encodes_in_the_inference_blocks(self, monkeypatch):
        # A training step encodes in the same 65,536 // N^2 proteins per
        # block, and its backward runs over the same blocks. It encodes the
        # rows that carry no gradients apart from the batch and its sampled
        # rows, at q = 256 / 298, each group in such blocks.
        fam = paper_scale_family(300, n=16, seed=5)
        config = ModelConfig(variant="evolformer", d=4, heads=1, l_r=1, l_p=1)
        params = init_params(config, fam.n, seed=0)
        encoded = []
        encode = model._encode_rows

        def counting_encode(family, active, leaves, config):
            encoded.append(len(active))
            return encode(family, active, leaves, config)

        monkeypatch.setattr(model, "_encode_rows", counting_encode)
        fg = build_forward(fam, params, config, rows=[0, 1])
        mse_loss(fg.y_hat, fam.targets[:2]).backward()
        assert max(encoded) <= 65536 // 16**2 and sum(encoded) == fg.encoded_rows == 300
        # Here 267 rows carry gradients: two blocks, and one for the other 33.
        carried = fg.carried_rows
        assert sorted(encoded) == sorted([65536 // 16**2, carried - 65536 // 16**2, 300 - carried])
        assert all(np.all(np.isfinite(g)) for g in fg.grads().values())
        assert "res0.ffn_w1" in fg.grads() and "phi_pos" in fg.grads()


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
class TestPoolSize:
    """One worker per CPU the process may use, the calling thread being one
    of them; the CLI pins BLAS to one thread unless a BLAS variable is set."""

    @staticmethod
    def probe(pin_to_one_cpu=False, **env_vars) -> dict:
        code = "import json, os, threading\n"
        if pin_to_one_cpu:
            code += "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
        code += (
            "from evolmpnn import cli, data\n"
            "import numpy as np\n"
            "data.pairwise_hamming(np.zeros((2048, 4), dtype=np.uint8))\n"
            "print(json.dumps({'blas': [os.environ.get(v) for v in %r],\n"
            "    'cpus': len(os.sched_getaffinity(0)),\n"
            "    'pool': None if data._POOL is None else data._POOL._max_workers,\n"
            "    'threads': threading.active_count()}))\n" % (BLAS_VARS,)
        )
        env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
        env.update(env_vars, PYTHONPATH=str(SRC))
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        return json.loads(done.stdout)

    def test_one_cpu_makes_no_pool_and_starts_no_thread(self):
        doc = self.probe(pin_to_one_cpu=True)
        assert doc == {"blas": ["1"] * 3, "cpus": 1, "pool": None, "threads": 1}

    @pytest.mark.skipif(CPUS < 2, reason="needs two usable CPUs")
    def test_pool_has_one_worker_per_usable_cpu(self):
        doc = self.probe()
        assert doc["cpus"] == CPUS and doc["pool"] == CPUS - 1
        assert 1 < doc["threads"] <= 1 + doc["pool"]

    def test_an_explicit_blas_setting_wins(self):
        assert self.probe(OMP_NUM_THREADS="3")["blas"] == ["3", "1", "1"]


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

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_training(self, monkeypatch, two_workers, small_blocks, variant, dtype):
        # Each side runs twice: thread interleaving moves heap addresses, and
        # a numpy kernel whose rounding depended on them would show here.
        serial, pooled = serial_and_pooled(
            monkeypatch, two_workers, lambda: [trained_bytes(variant, dtype) for _ in range(2)]
        )
        assert serial[0] == serial[1] == pooled[0] == pooled[1]

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
    def test_training_pinned_to_one_cpu(self, two_workers, small_blocks):
        # A process pinned to one CPU makes no pool and trains serially.
        code = (
            "import hashlib, json, os, sys\n"
            "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "sys.path.insert(0, %r)\n"
            "from evolmpnn import data\n"
            "import test_workers\n"
            "assert data._POOL is None\n"
            "data._BLOCK_BYTES = %d\n"
            "print(json.dumps([hashlib.sha256(test_workers.trained_bytes(v, t)).hexdigest()\n"
            "    for v in %r for t in %r]))\n" % (str(TESTS), data._BLOCK_BYTES, VARIANTS, DTYPES)
        )
        env = dict(os.environ, PYTHONPATH=str(SRC))
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
        )
        assert done.returncode == 0, done.stderr
        pooled = [hashlib.sha256(trained_bytes(v, t)).hexdigest() for v in VARIANTS for t in DTYPES]
        assert json.loads(done.stdout) == pooled
        assert len(two_workers) >= 2

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
