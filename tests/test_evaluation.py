"""Metrics, distortion, and the ridge baseline."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from evolmpnn import data
from evolmpnn.data import (
    ALPHABET,
    Family,
    LandscapeSpec,
    ProteinRecord,
    pairwise_hamming,
    split_lambda_vs_rest,
    synth_family,
)
from evolmpnn.evaluation import (
    DistortionReport,
    bourgain_embedding,
    distortion,
    eval_by_mutation_count,
    group_by_mutation_count,
    linear_baseline,
    onehot_features,
    predict,
    rank_average,
    spearman,
)
from evolmpnn.model import ModelConfig, init_params


def paper_scale_family(m, n=32, seed=4):
    """m sequences of length n, each residue mutated away from a wild type
    with probability 0.1."""
    rng = np.random.default_rng(seed)
    wt = rng.integers(0, 20, size=n)
    encoded = np.repeat(wt[None, :], m, axis=0)
    hits = rng.random(encoded.shape) < 0.1
    hits[0] = False
    encoded[hits] = (encoded[hits] + rng.integers(1, 20, size=hits.sum())) % 20
    return Family(
        [
            ProteinRecord(f"p{i}", "".join(ALPHABET[c] for c in row), (0.0,), i == 0)
            for i, row in enumerate(encoded)
        ]
    )


def traced_peak(fn):
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def loop_rank_average(values) -> np.ndarray:
    """Average ranks by walking runs of equal sorted values one at a time."""
    a = np.asarray(values, dtype=np.float64).reshape(-1)
    order = np.argsort(a, kind="mergesort")
    ranks = np.empty(a.size, dtype=np.float64)
    i = 0
    while i < a.size:
        j = i
        while j + 1 < a.size and a[order[j + 1]] == a[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def naive_spearman(x, y):
    """O(n^2) rank computation plus the direct Pearson formula."""
    x, y = np.asarray(x, float), np.asarray(y, float)

    def ranks(v):
        return np.array(
            [1 + np.sum(v < vi) + (np.sum(v == vi) - 1) / 2.0 for vi in v]
        )

    rx, ry = ranks(x), ranks(y)
    rx, ry = rx - rx.mean(), ry - ry.mean()
    return float((rx * ry).sum() / np.sqrt((rx**2).sum() * (ry**2).sum()))


class TestSpearman:
    def test_monotone(self):
        assert spearman([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)

    def test_antimonotone(self):
        assert spearman([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_textbook_value(self):
        # 1 - 6 * sum(d^2) / (n(n^2-1)) with d^2 summing to 2 over n=4.
        assert spearman([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8)

    def test_constant_input_rejected(self):
        with pytest.raises(ValueError, match="constant"):
            spearman([1.0, 1.0, 1.0], [1, 2, 3])

    def test_matches_naive_recomputation_with_ties(self):
        rng = np.random.default_rng(0)
        for _ in range(60):
            n = rng.integers(3, 40)
            x = rng.integers(0, 6, n).astype(float)  # heavy ties
            y = rng.normal(size=n)
            if np.all(x == x[0]):
                continue
            assert spearman(x, y) == pytest.approx(naive_spearman(x, y), abs=1e-12)

    def test_invariant_under_increasing_transforms(self):
        rng = np.random.default_rng(1)
        x, y = rng.normal(size=50), rng.normal(size=50)
        base = spearman(x, y)
        assert spearman(np.exp(x), y) == pytest.approx(base, abs=1e-12)
        assert spearman(x, 3 * y + 7) == pytest.approx(base, abs=1e-12)

    def test_null_distribution_stays_small(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            rho = spearman(rng.normal(size=1000), rng.normal(size=1000))
            assert abs(rho) < 0.1

    def test_rank_average_ties(self):
        np.testing.assert_allclose(rank_average([10, 20, 20, 30]), [1, 2.5, 2.5, 4])
        values = np.random.default_rng(0).integers(0, 50, size=500).astype(float)
        values[::7] = np.nan
        values[3] = -0.0
        values[4] = 0.0
        assert rank_average(values).tobytes() == loop_rank_average(values).tobytes()
        assert rank_average([]).shape == (0,)


class TestMutationGroups:
    def test_default_edges(self):
        counts = np.array([1, 2, 3, 4, 5, 6, 7, 8, 12])
        groups = group_by_mutation_count(counts)
        assert list(groups) == ["1-2", "3-4", "5-7", "8+"]
        assert groups["1-2"].tolist() == [0, 1]
        assert groups["8+"].tolist() == [7, 8]

    def test_explicit_two_bucket_edges(self):
        counts = np.array([1, 1, 2, 3])
        groups = group_by_mutation_count(counts, edges=[1, 2])
        assert groups["1"].tolist() == [0, 1]
        assert groups["2+"].tolist() == [2, 3]

    @pytest.mark.parametrize("edges", [[1, 1, 3], [3, 1], []])
    def test_edges_must_be_strictly_ascending(self, edges):
        # A repeated edge would label an always-empty group "1-0".
        with pytest.raises(ValueError, match="strictly ascending and non-empty"):
            group_by_mutation_count(np.array([1, 2, 3]), edges=edges)

    def test_small_groups_report_counts_only(self):
        preds = np.array([1.0, 2.0, 3.0, 4.0])
        targets = np.array([1.0, 2.0, 3.0, 4.0])
        counts = np.array([1, 1, 1, 3])
        out = eval_by_mutation_count(preds, targets, counts, edges=[1, 3])
        assert out["1-2"]["rho"] == pytest.approx(1.0)
        assert out["3+"] == {"n": 1, "rho": None}

    def test_merged_groups_match_global_ranking(self):
        rng = np.random.default_rng(3)
        preds = rng.normal(size=60)
        targets = preds + 0.1 * rng.normal(size=60)
        counts = rng.integers(1, 10, size=60)
        out = eval_by_mutation_count(preds, targets, counts, edges=[1])
        assert out["1+"]["rho"] == pytest.approx(spearman(preds, targets))


class TestDistortion:
    def test_isometry_has_alpha_one(self):
        pts = np.array([[0.0], [1.0], [3.0], [7.0]])
        base = np.abs(pts - pts.T)
        report = distortion(pts, base_matrix=base)
        assert report.alpha == pytest.approx(1.0)
        assert report.pairs == 6

    def test_two_points_always_alpha_one(self):
        base = np.array([[0.0, 5.0], [5.0, 0.0]])
        emb = np.array([[0.0], [0.123]])
        assert distortion(emb, base_matrix=base).alpha == pytest.approx(1.0)

    def test_scale_invariance(self):
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(5, 3))
        base = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1))
        emb = rng.normal(size=(5, 4))
        a1 = distortion(emb, base_matrix=base).alpha
        a2 = distortion(10.0 * emb, base_matrix=base).alpha
        assert a1 == pytest.approx(a2)

    def test_matches_bruteforce_pair_ratios(self):
        rng = np.random.default_rng(5)
        for m in (4, 5, 6, 7, 8):
            pts = rng.normal(size=(m, 3))
            base = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1))
            emb = rng.normal(size=(m, 2))
            emb_dist = np.sqrt(((emb[:, None] - emb[None]) ** 2).sum(-1))
            ratios = [
                emb_dist[i, j] / base[i, j]
                for i in range(m)
                for j in range(i + 1, m)
                if base[i, j] > 0
            ]
            expected = max(ratios) / min(ratios)
            got = distortion(emb, base_matrix=base).alpha
            assert got == pytest.approx(expected, rel=1e-12)

    def test_matches_bruteforce_in_row_blocks(self, monkeypatch):
        # Blocks of 3 rows, fewer than every space has; 3 divides only m = 6.
        monkeypatch.setattr(data, "_block_rows", lambda bytes_per_row: 3)
        self.test_matches_bruteforce_pair_ratios()

    def test_collapsed_pair_reports_infinity(self):
        base = np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=float)
        emb = np.array([[0.0], [0.0], [1.0]])
        report = distortion(emb, base_matrix=base)
        assert np.isinf(report.alpha)
        assert report.to_json()["alpha"] == "inf"

    def test_family_base_metric_is_hamming(self):
        fam = Family(
            [
                ProteinRecord("a", "AAAA", (0.0,), True),
                ProteinRecord("b", "AAAC", (0.0,)),
                ProteinRecord("c", "CCCC", (0.0,)),
            ]
        )
        emb = np.array([[0.0], [1.0], [4.0]])
        report = distortion(emb, fam)
        assert report.metric == "hamming"
        assert report.pairs == 3

    def test_row_blocks_give_the_whole_matrix_result(self, monkeypatch):
        fam = paper_scale_family(50, n=8, seed=1)
        base = pairwise_hamming(fam.encoded)
        emb = np.random.default_rng(3).normal(size=(fam.m, 5))
        whole = distortion(emb, base_matrix=base)
        monkeypatch.setattr(data, "_block_rows", lambda bytes_per_row: 7)
        for report in (distortion(emb, fam), distortion(emb, base_matrix=base)):
            assert report.alpha == whole.alpha
            assert report.pairs == whole.pairs

    @pytest.mark.parametrize(
        "emb,base,message",
        [
            ([[0.0], [np.nan], [1.0]], np.ones((3, 3)), "embedding has non-finite values"),
            ([[0.0], [1.0], [2.0]], np.ones((3, 5)), "base matrix must be square"),
            ([[0.0], [1.0], [2.0]], [[0, 1, np.inf], [1, 0, 1], [1, 1, 0]], "non-finite"),
            ([[0.0], [1.0], [2.0]], [[0, 1, -1], [1, 0, 1], [1, 1, 0]], "negative distances"),
        ],
        ids=["nan-embedding", "not-square", "inf-base", "negative-base"],
    )
    def test_invalid_inputs_rejected(self, emb, base, message):
        with pytest.raises(ValueError, match=message):
            distortion(np.array(emb), base_matrix=np.array(base, dtype=float))

    @pytest.mark.usefixtures("fixed_workers")
    def test_paper_scale_family_in_bounded_memory(self):
        # A whole M x M x 64 float64 difference tensor alone is 2.1 GB here.
        fam = paper_scale_family(2048)
        emb = np.random.default_rng(0).normal(size=(fam.m, 64))
        report, peak = traced_peak(lambda: distortion(emb, fam))
        assert peak < 128e6
        assert np.isfinite(report.alpha)
        assert report.pairs == np.count_nonzero(np.triu(pairwise_hamming(fam.encoded), 1))


class TestPredict:
    @pytest.mark.usefixtures("fixed_workers")
    def test_paper_scale_family_in_bounded_memory(self):
        # Run through the training graph, this prediction peaks at about 1.9 GB.
        fam = paper_scale_family(8192)
        config = ModelConfig(variant="evolmpnn", d=32, heads=2, l_r=1, l_p=1)
        params = init_params(config, fam.n, seed=0)
        pool = [fam.ids[i] for i in range(400)]
        rows = list(range(400, fam.m))
        preds, peak = traced_peak(
            lambda: predict(fam, params, config, rows=rows, train_ids=pool)
        )
        assert peak < 64e6
        assert preds.shape == (len(rows),) and np.all(np.isfinite(preds))


class TestBourgainEmbedding:
    def euclidean_space(self, m, seed):
        rng = np.random.default_rng(seed)
        pts = rng.random((m, 2))
        return np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1))

    def test_shape_and_finiteness(self):
        base = self.euclidean_space(32, 0)
        emb = bourgain_embedding(base, seed=1)
        assert emb.shape == (32, 25)  # ceil(log2 32)^2
        report = distortion(emb, base_matrix=base)
        assert np.isfinite(report.alpha)

    def test_more_sets_do_not_hurt_median_alpha(self):
        base = self.euclidean_space(64, 2)
        medians = []
        for k in (8, 16, 32):
            alphas = [
                distortion(bourgain_embedding(base, k=k, seed=s), base_matrix=base).alpha
                for s in range(10)
            ]
            assert all(np.isfinite(alphas))
            medians.append(np.median(alphas))
        assert medians[1] <= medians[0]
        assert medians[2] <= medians[1]

    @pytest.mark.parametrize(
        "base,message",
        [
            (np.ones((3, 5)), "base matrix must be square"),
            ([[0, 1, -1], [1, 0, 1], [-1, 1, 0]], "negative distances"),
            ([[0, 1, np.nan], [1, 0, 1], [np.nan, 1, 0]], "non-finite"),
        ],
        ids=["not-square", "negative-base", "nan-base"],
    )
    def test_invalid_base_rejected(self, base, message):
        with pytest.raises(ValueError, match=message):
            bourgain_embedding(np.array(base, dtype=float))


class TestLinearBaseline:
    def test_additive_landscape_is_learned_exactly(self):
        # Sized so the train pool covers every observed substitution; an
        # additive landscape is then exactly linear in one-hot features.
        rng = np.random.default_rng(6)
        spec = LandscapeSpec(
            n=6,
            m=600,
            max_mutations=4,
            additive=rng.normal(size=(6, 20)),
            epistasis=[],
            noise_std=0.0,
            seed=11,
        )
        fam = synth_family(spec)
        split = split_lambda_vs_rest(fam, lam=2, valid_frac=0.1, seed=0)
        metrics = linear_baseline(fam, split)
        assert metrics.spearman is not None and metrics.spearman >= 0.99

    def test_constant_targets_report_undefined_rho(self):
        spec = LandscapeSpec(
            n=6, m=40, max_mutations=3, additive=np.zeros((6, 20)), epistasis=[], seed=2
        )
        fam = synth_family(spec)
        split = split_lambda_vs_rest(fam, lam=1, valid_frac=0.2, seed=0)
        metrics = linear_baseline(fam, split)
        assert metrics.spearman is None
        assert metrics.mse == pytest.approx(0.0, abs=1e-12)

    def test_onehot_features_shape(self):
        fam = Family(
            [
                ProteinRecord("a", "AC", (0.0,), True),
                ProteinRecord("b", "CA", (0.0,)),
            ]
        )
        feats = onehot_features(fam)
        assert feats.shape == (2, 40)
        assert feats.sum() == 4  # one hot per position
