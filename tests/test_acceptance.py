"""Acceptance suite: one criterion per test, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
print; every check is deterministic (fixed seeds throughout).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from evolmpnn.cli import load_checkpoint, save_checkpoint
from evolmpnn.data import (
    Family,
    LandscapeSpec,
    ProteinRecord,
    knn_graph,
    split_lambda_vs_rest,
    synth_family,
)
from evolmpnn.evaluation import (
    bourgain_embedding,
    distortion,
    evaluate,
    linear_baseline,
    predict,
    spearman,
)
from evolmpnn.evolution import anchor_count, inclusion_probability, sample_anchor_sets
from evolmpnn.model import ModelConfig
from evolmpnn.training import TrainConfig, train
from gradcheck import gradient_check


def check(criterion: str, ok: bool, detail: str) -> None:
    line = f"{criterion} {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, flush=True)
    assert ok, line


def random_family(m, n, seed, targets=None):
    rng = np.random.default_rng(seed)
    from evolmpnn.data import ALPHABET

    seqs = ["".join(ALPHABET[c] for c in rng.integers(0, 20, n)) for _ in range(m)]
    y = targets if targets is not None else rng.normal(size=m)
    return Family(
        [
            ProteinRecord(f"p{i}", s, (float(t),), is_wild_type=i == 0)
            for i, (s, t) in enumerate(zip(seqs, y))
        ]
    )


class TestA1GradientCorrectness:
    def test_a1(self):
        started = time.perf_counter()
        fam = random_family(6, 4, seed=0)
        worst = {}
        for variant in ("evolmpnn", "evolgnn", "evolformer"):
            config = ModelConfig(
                variant=variant, d=8, heads=2, d_head=4, l_r=1, l_p=1, dtype="float64"
            )
            graph = knn_graph(fam, k=2) if variant == "evolgnn" else None
            report = gradient_check(
                fam, config, seed=1, eps=1e-5, coords_per_tensor=8, graph=graph
            )
            worst[variant] = report.max_relative_error
        elapsed = time.perf_counter() - started
        ok = all(v <= 1e-4 for v in worst.values()) and elapsed < 60
        detail = (
            "max relative gradient error "
            + ", ".join(f"{k}={v:.2e}" for k, v in worst.items())
            + f" (tol 1e-4), {elapsed:.1f}s (<60s)"
        )
        check("A1", ok, detail)


@pytest.mark.slow
class TestA2OverfitCapacity:
    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_a2(self):
        started = time.perf_counter()
        rng = np.random.default_rng(7)
        spec = LandscapeSpec(
            n=24,
            m=64,
            max_mutations=6,
            additive=rng.normal(size=(24, 20)),
            epistasis=[],
            noise_std=0.0,
            seed=7,
        )
        fam = synth_family(spec)
        split = split_lambda_vs_rest(fam, lam=6, valid_frac=0.1, seed=7)
        config = ModelConfig(variant="evolmpnn", d=32, heads=2, l_r=1, l_p=1, dtype="float64")
        tc = TrainConfig(lr=5e-3, epochs=200, batch_size=16, patience=200, seed=7)
        params, _ = train(fam, split, config, tc)
        rho = evaluate(fam, split, params, config, tag="train").spearman
        elapsed = time.perf_counter() - started
        ok = rho is not None and rho >= 0.99 and elapsed < 300
        check("A2", ok, f"train rho {rho:.4f} (>=0.99) in {elapsed:.0f}s (<300s)")


def epistatic_benchmark_family(lseed=11, n=32, m=512, max_mut=5, n_pairs=20):
    """Factorized additive landscape plus 20 hot-position pair interactions."""
    rng = np.random.default_rng(lseed)
    residue_effect = rng.normal(size=20)
    pos_scale = rng.uniform(0.5, 1.5, size=n)
    hot = rng.choice(n, size=8, replace=False)
    pos_scale[hot] *= 3.0
    additive = pos_scale[:, None] * residue_effect[None, :] + 0.10 * rng.normal(size=(n, 20))
    base = LandscapeSpec(
        n=n, m=m, max_mutations=max_mut, additive=additive, epistasis=[], seed=lseed
    )
    wt = synth_family(base).wild_type.sequence
    all_pairs = [(int(a), int(b)) for i, a in enumerate(hot) for b in hot[i + 1 :]]
    take = rng.choice(len(all_pairs), size=n_pairs, replace=False)
    pairs = []
    for idx in take:
        p, q = all_pairs[idx]
        w = 3.0 * (1 if rng.random() < 0.5 else -1) * (0.5 + rng.random())
        pairs.append((p, q, wt[p], wt[q], float(w)))
    clean = LandscapeSpec(
        n=n, m=m, max_mutations=max_mut, additive=additive, epistasis=pairs, seed=lseed
    )
    std = float(synth_family(clean).targets.std())
    noisy = LandscapeSpec(
        n=n,
        m=m,
        max_mutations=max_mut,
        additive=additive,
        epistasis=pairs,
        noise_std=0.05 * std,
        seed=lseed,
    )
    return synth_family(noisy)


@pytest.mark.slow
class TestA3MutationEffectSignal:
    def test_a3(self):
        started = time.perf_counter()
        fam = epistatic_benchmark_family()
        model_rhos, baseline_rhos = [], []
        for seed in (0, 1, 2):
            split = split_lambda_vs_rest(fam, lam=2, valid_frac=0.15, seed=seed)
            config = ModelConfig(
                variant="evolmpnn", d=24, heads=2, l_r=1, l_p=1, dtype="float64"
            )
            tc = TrainConfig(lr=7e-3, epochs=300, batch_size=32, patience=80, seed=seed)
            params, _ = train(fam, split, config, tc)
            model_rhos.append(evaluate(fam, split, params, config, tag="test").spearman)
            baseline_rhos.append(linear_baseline(fam, split).spearman)
        elapsed = time.perf_counter() - started
        mean_model = float(np.mean(model_rhos))
        mean_base = float(np.mean(baseline_rhos))
        ok = mean_model >= 0.60 and mean_model - mean_base >= 0.05 and elapsed < 900
        check(
            "A3",
            ok,
            f"3-seed mean test rho {mean_model:.3f} (>=0.60), ridge {mean_base:.3f}, "
            f"gap {mean_model - mean_base:+.3f} (>=0.05), {elapsed:.0f}s (<900s)",
        )


class TestA4SplitArithmetic:
    def test_a4(self):
        # Set identity on a family with a benchmark-like spread of counts.
        rng = np.random.default_rng(4)
        from evolmpnn.data import ALPHABET

        wt = "".join(ALPHABET[c] for c in rng.integers(0, 20, 12))
        seqs = [wt]
        for _ in range(600):
            s = list(wt)
            for p in rng.choice(12, size=rng.integers(1, 9), replace=False):
                s[p] = ALPHABET[rng.integers(0, 20)]
            seqs.append("".join(s))
        fam = Family(
            [
                ProteinRecord(f"v{i}", s, (0.0,), is_wild_type=i == 0)
                for i, s in enumerate(seqs)
            ]
        )
        identity_ok = True
        for lam in (2, 7):
            split = split_lambda_vs_rest(fam, lam=lam, valid_frac=0.1, seed=1)
            counts = fam.mutation_counts()
            pool = {fam.ids[i] for i in range(fam.m) if counts[i] <= lam}
            tagged = {rid for rid, t in split.tags.items() if t in ("train", "valid")}
            identity_ok = identity_ok and tagged == pool

        # Published-count arithmetic on synthetic families with the same
        # pool sizes as GB1 2-vs-Rest (424 of 8,733) and 3-vs-Rest (2,990).
        def sized_family(pool_size, total):
            near = ["C" + "A" * 7, "AC" + "A" * 6]
            recs = [ProteinRecord("wt", "A" * 8, (0.0,), True)]
            for i in range(pool_size - 1):
                recs.append(ProteinRecord(f"n{i}", near[i % 2], (0.0,)))
            for i in range(total - pool_size):
                recs.append(ProteinRecord(f"f{i}", "CCCC" + "A" * 4, (0.0,)))
            return Family(recs)

        gb1_2 = split_lambda_vs_rest(sized_family(424, 8733), 2, 0.1, seed=0).counts()
        gb1_3 = split_lambda_vs_rest(sized_family(2990, 8733), 2, 0.1, seed=0).counts()
        counts_ok = gb1_2 == {"train": 381, "valid": 43, "test": 8309} and gb1_3 == {
            "train": 2691,
            "valid": 299,
            "test": 5743,
        }
        check(
            "A4",
            identity_ok and counts_ok,
            f"train+valid == {{hamming<=lambda}} for lambda in (2,7); "
            f"pool 424 -> {gb1_2}, pool 2990 -> {gb1_3}",
        )


class TestA5SamplerStatistics:
    def test_a5(self):
        k_ok = (
            anchor_count(2) == 1
            and anchor_count(8733) == 196
            and anchor_count(82583) == 289
        )
        worst_z = 0.0
        for m in (256, 1024):
            ids = [f"p{i}" for i in range(m)]
            cycle = int(np.ceil(np.log2(m)))
            sizes = np.zeros((200, cycle))
            for draw in range(200):
                sets = sample_anchor_sets(ids, 0, draw=draw, k=cycle, seed=5)
                sizes[draw] = [0 if s.fallback_used else len(s.member_ids) for s in sets]
            for j in range(1, cycle + 1):
                p = inclusion_probability(j, m)
                sigma_mean = np.sqrt(m * p * (1 - p) / 200)
                z = abs(sizes[:, j - 1].mean() - m * p) / sigma_mean
                worst_z = max(worst_z, z)
        check(
            "A5",
            k_ok and worst_z <= 3.0,
            f"k(2,8733,82583)=(1,196,289): {k_ok}; worst binomial-mean |z| "
            f"{worst_z:.2f} over 200 seeds, M in (256,1024) (<=3)",
        )


class TestA6MetricOracles:
    def naive_spearman(self, x, y):
        x, y = np.asarray(x, float), np.asarray(y, float)

        def ranks(v):
            return np.array([1 + np.sum(v < vi) + (np.sum(v == vi) - 1) / 2.0 for vi in v])

        rx, ry = ranks(x), ranks(y)
        rx, ry = rx - rx.mean(), ry - ry.mean()
        return float((rx * ry).sum() / np.sqrt((rx**2).sum() * (ry**2).sum()))

    def test_a6(self):
        rng = np.random.default_rng(6)
        worst_sp = 0.0
        for _ in range(1000):
            n = int(rng.integers(3, 40))
            x = rng.integers(0, 8, n).astype(float)
            y = rng.normal(size=n)
            if np.all(x == x[0]):
                continue
            worst_sp = max(worst_sp, abs(spearman(x, y) - self.naive_spearman(x, y)))

        worst_dist = 0.0
        for m in (4, 5, 6, 7, 8):
            for rep in range(5):
                pts = rng.normal(size=(m, 3))
                base = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1))
                emb = rng.normal(size=(m, 2))
                emb_d = np.sqrt(((emb[:, None] - emb[None]) ** 2).sum(-1))
                ratios = [
                    emb_d[i, j] / base[i, j]
                    for i in range(m)
                    for j in range(i + 1, m)
                    if base[i, j] > 0
                ]
                expected = max(ratios) / min(ratios)
                got = distortion(emb, base_matrix=base).alpha
                worst_dist = max(worst_dist, abs(got - expected) / expected)

        pts = np.random.default_rng(2).random((64, 2))
        base = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1))
        medians = []
        finite = True
        for k in (8, 16, 32):
            alphas = [
                distortion(bourgain_embedding(base, k=k, seed=s), base_matrix=base).alpha
                for s in range(10)
            ]
            finite = finite and all(np.isfinite(alphas))
            medians.append(float(np.median(alphas)))
        trend_ok = finite and medians[1] <= medians[0] and medians[2] <= medians[1]
        ok = worst_sp <= 1e-12 and worst_dist <= 1e-12 and trend_ok
        check(
            "A6",
            ok,
            f"spearman vs exhaustive recomputation: max |diff| {worst_sp:.1e} (<=1e-12); "
            f"distortion vs brute force on 4..8-point spaces: max rel diff {worst_dist:.1e}; "
            f"reference-embedder median alpha {[round(x, 2) for x in medians]} non-increasing",
        )


class TestA7DeterminismPersistence:
    def test_a7(self, tmp_path):
        rng = np.random.default_rng(3)
        spec = LandscapeSpec(
            n=10,
            m=60,
            max_mutations=4,
            additive=rng.normal(size=(10, 20)),
            epistasis=[],
            noise_std=0.0,
            seed=3,
        )
        fam = synth_family(spec)
        split = split_lambda_vs_rest(fam, lam=2, valid_frac=0.2, seed=0)
        config = ModelConfig(variant="evolmpnn", d=8, heads=2, l_r=1, l_p=1, dtype="float32")
        tc = TrainConfig(lr=3e-3, epochs=6, seed=0)
        params_a, report_a = train(fam, split, config, tc)
        params_b, report_b = train(fam, split, config, tc)
        reports_ok = report_a.signature() == report_b.signature()
        params_ok = all(
            np.array_equal(params_a.tensors[c], params_b.tensors[c])
            for c in params_a.tensors
        )
        rows = split.rows(fam, "test")
        train_ids = [fam.ids[i] for i in split.rows(fam, "train")]
        before = predict(fam, params_a, config, rows=rows, train_ids=train_ids)
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(params_a, {"model": config.to_json(), "train": {}, "data": {}}, ckpt)
        loaded, run_back = load_checkpoint(ckpt)
        after = predict(
            fam,
            loaded,
            ModelConfig.from_json(run_back["model"]),
            rows=rows,
            train_ids=train_ids,
        )
        bitwise = np.array_equal(before, after) and before.dtype == np.float32
        rho_before = evaluate(fam, split, params_a, config).spearman
        rho_after = evaluate(fam, split, loaded, config).spearman
        ok = reports_ok and params_ok and bitwise and rho_before == rho_after
        check(
            "A7",
            ok,
            f"identical seeds -> identical reports: {reports_ok}; float32 "
            f"save/load predictions bitwise: {bitwise}; rho diff "
            f"{abs(rho_before - rho_after):.1e} (exactly 0)",
        )


class TestA8ScalingShape:
    def epoch_seconds(self, m):
        rng = np.random.default_rng(0)
        spec = LandscapeSpec(
            n=16,
            m=m,
            max_mutations=6,
            additive=rng.normal(size=(16, 20)),
            epistasis=[],
            noise_std=0.0,
            seed=1,
        )
        fam = synth_family(spec)
        split = split_lambda_vs_rest(fam, lam=6, valid_frac=0.1, seed=0)
        config = ModelConfig(variant="evolmpnn", d=16, heads=2, l_r=1, l_p=1, dtype="float64")
        tc = TrainConfig(lr=1e-3, epochs=8, batch_size=m, patience=8, seed=0)
        _, report = train(fam, split, config, tc)
        # Minimum over epochs: scheduler noise only ever adds time, so the
        # minimum estimates the true per-epoch cost.
        return float(np.min([e.seconds for e in report.epochs]))

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_a8(self):
        t1 = self.epoch_seconds(1024)
        t2 = self.epoch_seconds(2048)
        ratio = t2 / t1
        check(
            "A8",
            ratio <= 2.6,
            f"per-epoch time {t1:.2f}s (M=1024) -> {t2:.2f}s (M=2048), "
            f"ratio {ratio:.2f} (<=2.6, fixed N=16, d=16)",
        )


class TestA9SequenceIdentityInvariant:
    def test_a9(self):
        from evolmpnn.data import ALPHABET
        from evolmpnn.model import forward, init_params

        rng = np.random.default_rng(9)
        seqs = ["".join(ALPHABET[c] for c in rng.integers(0, 20, 6)) for _ in range(10)]
        seqs[3] = seqs[0]
        seqs[7] = seqs[0]
        seqs[8] = seqs[5]
        fam = Family(
            [
                ProteinRecord(f"p{i}", s, (float(i),), is_wild_type=i == 0)
                for i, s in enumerate(seqs)
            ]
        )
        dup_groups = [(0, 3), (0, 7), (5, 8)]
        ok = True
        details = []
        for variant in ("evolmpnn", "evolgnn", "evolformer"):
            # The graph variant needs duplicate-symmetric adjacency; the
            # index tie-break of sparse K-NN attaches union edges to the
            # lowest-index duplicate only. K = M-1 is the saturated K-NN
            # graph and treats equal sequences equally.
            graph = knn_graph(fam, k=fam.m - 1) if variant == "evolgnn" else None
            for dtype, tol in (("float64", 0.0), ("float32", 1e-6)):
                if variant == "evolgnn" and dtype == "float64":
                    # Duplicates aggregate neighbor sets that are equal as
                    # multisets but ordered differently (each excludes its
                    # own row), so sums round independently; machine
                    # precision is the exactness floating point admits.
                    tol = 1e-12
                config = ModelConfig(
                    variant=variant, d=8, heads=2, l_r=1, l_p=1, dtype=dtype
                )
                params = init_params(config, fam.n, seed=2)
                pred = forward(fam, params, config, graph=graph).y_hat[:, 0]
                for i, j in dup_groups:
                    denom = max(abs(pred[i]), abs(pred[j]), 1e-12)
                    rel = abs(pred[i] - pred[j]) / denom
                    if rel > tol:
                        ok = False
                        details.append(f"{variant}/{dtype} rows {i},{j} rel {rel:.2e}")
        check(
            "A9",
            ok,
            "duplicate sequences predict identically for all variants "
            "(float64 exact, float32 <=1e-6 rel)" + ("" if ok else f"; {details}"),
        )
