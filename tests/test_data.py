"""Family ingestion, splits, K-NN graphs, and synthetic landscapes."""

from __future__ import annotations

import itertools
import re
import tracemalloc

import numpy as np
import pytest

from evolmpnn.data import (
    ALPHABET,
    AA_INDEX,
    Family,
    FamilyError,
    Graph,
    LandscapeSpec,
    ProteinRecord,
    SplitError,
    knn_graph,
    load_family,
    load_split,
    save_family,
    save_split,
    split_lambda_vs_rest,
    split_low_vs_high,
    synth_family,
)


def write_csv(path, rows, header="id,sequence,target,is_wild_type"):
    path.write_text(header + "\n" + "\n".join(rows) + "\n")
    return path


def make_family(seqs, targets=None, wt=0):
    targets = targets if targets is not None else [0.0] * len(seqs)
    return Family(
        [
            ProteinRecord(f"p{i}", s, (float(t),), is_wild_type=i == wt)
            for i, (s, t) in enumerate(zip(seqs, targets))
        ]
    )


class TestLoadFamily:
    def test_minimal_valid_file(self, tmp_path):
        p = write_csv(
            tmp_path / "f.csv",
            ["wt,ACDE,1.5,1", "m1,ACDF,0.5,0", "m2,GCDE,-0.25,0"],
        )
        fam = load_family(p)
        assert (fam.m, fam.n) == (3, 4)
        assert fam.wild_type.id == "wt"
        assert fam.records[1].target == (0.5,)

    def test_preserves_file_order(self, tmp_path):
        p = write_csv(
            tmp_path / "f.csv", ["b,AA,0,0", "a,AC,0,1", "c,CC,0,0"]
        )
        assert load_family(p).ids == ["b", "a", "c"]

    def test_unequal_lengths_reports_row(self, tmp_path):
        p = write_csv(tmp_path / "f.csv", ["wt,ACDE,1,1", "m1,ACDEF,0,0"])
        with pytest.raises(FamilyError, match="unequal sequence lengths at row 2"):
            load_family(p)

    @pytest.mark.parametrize("ch", list("BJOUXZ"))
    def test_noncanonical_residues_rejected(self, tmp_path, ch):
        p = write_csv(tmp_path / "f.csv", [f"wt,AC{ch}E,1,1", "m1,ACDE,0,0"])
        with pytest.raises(FamilyError, match="invalid residue"):
            load_family(p)

    def test_duplicate_id_reports_row(self, tmp_path):
        p = write_csv(tmp_path / "f.csv", ["a,AC,1,1", "a,AA,0,0"])
        with pytest.raises(FamilyError, match="duplicate id 'a' at row 2"):
            load_family(p)

    def test_non_numeric_target_reports_row(self, tmp_path):
        p = write_csv(tmp_path / "f.csv", ["a,AC,1,1", "b,AA,oops,0"])
        with pytest.raises(FamilyError, match="non-numeric target 'oops' at row 2"):
            load_family(p)

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_target_reports_row(self, tmp_path, text):
        p = write_csv(tmp_path / "f.csv", ["a,AC,1,1", f"b,AA,{text},0"])
        with pytest.raises(FamilyError, match=f"f.csv: non-finite target '{text}' at row 2"):
            load_family(p)

    def test_single_record_names_the_file(self, tmp_path):
        p = write_csv(tmp_path / "f.csv", ["a,AC,1,1"])
        with pytest.raises(FamilyError, match="f.csv: a family needs at least 2 records, got 1"):
            load_family(p)

    @pytest.mark.parametrize("flags,msg", [(("0", "0"), "no wild-type"), (("1", "1"), "2 wild-type")])
    def test_wild_type_count_enforced(self, tmp_path, flags, msg):
        p = write_csv(
            tmp_path / "f.csv", [f"a,AC,1,{flags[0]}", f"b,AA,0,{flags[1]}"]
        )
        with pytest.raises(FamilyError, match=msg):
            load_family(p)

    def test_bad_header_rejected(self, tmp_path):
        p = write_csv(tmp_path / "f.csv", ["a,AC,1,1"], header="id,seq,target,wt")
        with pytest.raises(FamilyError, match="expected header"):
            load_family(p)

    @pytest.mark.parametrize("target", [(), (1.0, 2.0)], ids=["empty", "pair"])
    def test_record_needs_exactly_one_target_value(self, target):
        records = [
            ProteinRecord(r.id, r.sequence, target, r.is_wild_type)
            for r in make_family(["AC", "CA", "CC"]).records
        ]
        with pytest.raises(FamilyError, match=f"record 'p0' has {len(target)} target values"):
            Family(records)

    def test_sidecar_features_must_match_family(self):
        records = make_family(["AC", "CA", "CC"]).records
        with pytest.raises(FamilyError, match="protein_feats"):
            Family(records, protein_feats=np.zeros((2, 4)))
        with pytest.raises(FamilyError, match="residue_feats"):
            Family(records, residue_feats=np.zeros((3, 3, 4)))
        with pytest.raises(FamilyError, match=re.escape("protein_feats has shape (3,)")):
            Family(records, protein_feats=np.zeros(3))
        with pytest.raises(FamilyError, match=re.escape("residue_feats has shape (3, 2)")):
            Family(records, residue_feats=np.zeros((3, 2)))
        fam = Family(records, np.zeros((3, 4)), np.zeros((3, 2, 4)))
        assert fam == Family(records)  # features take no part in equality

    def test_round_trip(self, tmp_path):
        fam = make_family(["ACDE", "ACDF", "GCDE"], [1.25, -0.5, 3.0])
        out = tmp_path / "round.csv"
        save_family(fam, out)
        back = load_family(out)
        assert back.ids == fam.ids
        np.testing.assert_array_equal(back.targets, fam.targets)


def hamming(a: str, b: str) -> int:
    """Number of substitutions between two equal-length sequences."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return sum(x != y for x, y in zip(a, b))


def edge_set(graph) -> set[tuple[int, int]]:
    return {(int(i), int(j)) for i, j in graph.edges}


class TestHamming:
    def test_identity(self):
        assert hamming("AAA", "AAA") == 0

    def test_single_substitution(self):
        assert hamming("AAA", "AAC") == 1

    def test_counts_differing_positions(self):
        assert hamming("ACD", "DCA") == 2

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            hamming("AA", "AAA")

    def test_metric_properties_on_random_triples(self):
        rng = np.random.default_rng(11)
        letters = np.array(list(ALPHABET))
        for _ in range(200):
            a, b, c = ("".join(letters[rng.integers(0, 20, 6)]) for _ in range(3))
            assert hamming(a, b) >= 0
            assert (hamming(a, b) == 0) == (a == b)
            assert hamming(a, b) == hamming(b, a)
            assert hamming(a, c) <= hamming(a, b) + hamming(b, c)


class TestLambdaVsRest:
    def test_set_identity(self):
        rng = np.random.default_rng(5)
        seqs = ["AAAAAA"]
        for _ in range(40):
            seq = list("AAAAAA")
            for p in rng.choice(6, size=rng.integers(1, 5), replace=False):
                seq[p] = ALPHABET[rng.integers(1, 20)]
            seqs.append("".join(seq))
        fam = make_family(seqs)
        split = split_lambda_vs_rest(fam, lam=2, valid_frac=0.2, seed=3)
        counts = fam.mutation_counts()
        pool = {fam.ids[i] for i in range(fam.m) if counts[i] <= 2}
        tagged = {rid for rid, t in split.tags.items() if t in ("train", "valid")}
        assert tagged == pool
        assert split.tags["p0"] == "train"  # wild type pinned to train
        assert set(split.tags) == set(fam.ids)

    def test_benchmark_sized_pool_arithmetic(self):
        # ceil(0.1 * pool) validation rows reproduces published counts for a
        # pool of 424 at lambda=2: 381 train / 43 valid, remainder test.
        seqs, targets = ["A" * 8], [0.0]
        for i in range(423):
            seqs.append("C" + "A" * 7 if i % 2 else "AC" + "A" * 6)
        for i in range(8309):
            seqs.append("CCC" + "A" * 5)
        # make ids unique by regenerating records directly
        fam = Family(
            [
                ProteinRecord(f"v{i}", s, (0.0,), is_wild_type=i == 0)
                for i, s in enumerate(seqs)
            ]
        )
        split = split_lambda_vs_rest(fam, lam=2, valid_frac=0.1, seed=0)
        assert split.counts() == {"train": 381, "valid": 43, "test": 8309}

    def test_only_wild_type_in_pool(self):
        fam = make_family(["AAAA", "CCCC", "DDDD"])
        split = split_lambda_vs_rest(fam, lam=1, valid_frac=0.1, seed=0)
        assert split.tags == {"p0": "train", "p1": "test", "p2": "test"}

    def test_empty_test_warns(self):
        fam = make_family(["AAAA", "AAAC", "AACA"])
        with pytest.warns(UserWarning, match="test set empty"):
            split_lambda_vs_rest(fam, lam=4, valid_frac=0.3, seed=0)

    def test_seed_changes_validation_draw(self):
        fam = make_family(["AAAA"] + [f"AAA{c}" for c in "CDEFGHIK"] + ["CCCC"])
        a = split_lambda_vs_rest(fam, 1, 0.3, seed=0)
        b = split_lambda_vs_rest(fam, 1, 0.3, seed=1)
        assert a.tags != b.tags
        assert a.tags == split_lambda_vs_rest(fam, 1, 0.3, seed=0).tags

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "0"])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        fam = make_family(["AAAA", "AAAC", "AACA", "CCCC"], targets=[0.0, -1.0, -2.0, 1.0])
        for split in (
            lambda: split_lambda_vs_rest(fam, 1, 0.3, seed=seed),
            lambda: split_low_vs_high(fam, 0.3, seed=seed),
        ):
            with pytest.raises(SplitError, match=f"seed must be an integer >= 0, got {seed!r}"):
                split()


class TestLowVsHigh:
    def test_definition(self):
        fam = make_family(["AA", "AC", "CA"], targets=[0.0, -1.0, 1.0])
        split = split_low_vs_high(fam, valid_frac=0.4, seed=0)
        assert split.tags["p2"] == "test"
        assert {split.tags["p0"], split.tags["p1"]} <= {"train", "valid"}
        assert split.tags["p0"] == "train"

    def test_pool_fraction(self):
        rng = np.random.default_rng(9)
        targets = rng.normal(size=200).tolist()
        targets[0] = 0.0
        seqs = ["AAAA"] + ["AAA" + ALPHABET[1 + rng.integers(0, 19)] for _ in range(199)]
        fam = make_family(seqs, targets)
        split = split_low_vs_high(fam, valid_frac=0.1, seed=4)
        pool = sum(1 for t in targets if t <= 0.0)
        c = split.counts()
        assert c["train"] + c["valid"] == pool
        assert c["valid"] == int(np.ceil(0.1 * pool))

    def test_all_equal_targets_warns(self):
        fam = make_family(["AA", "AC", "CA"], targets=[1.0, 1.0, 1.0])
        with pytest.warns(UserWarning, match="test set empty"):
            split = split_low_vs_high(fam, valid_frac=0.4, seed=0)
        assert split.counts()["test"] == 0


class TestSplitIO:
    def test_round_trip(self, tmp_path):
        fam = make_family(["AA", "AC", "CA", "CC"], targets=[0, 1, 2, 3])
        split = split_low_vs_high(fam, valid_frac=0.3, seed=0)
        path = tmp_path / "split.csv"
        save_split(split, path)
        back = load_split(path, fam)
        assert back.tags == split.tags

    def test_loaded_split_must_cover_family(self, tmp_path):
        fam = make_family(["AA", "AC", "CA"])
        path = tmp_path / "split.csv"
        path.write_text("id,split\np0,train\np1,test\n")
        with pytest.raises(SplitError, match="does not cover"):
            load_split(path, fam)


class TestKnnGraph:
    def test_three_point_example(self):
        # Pairwise Hamming: d(0,1)=1, d(0,2)=3, d(1,2)=2; K=1.
        # Brute-force nearest neighbors: 0->1, 1->0, 2->1; union adds 1<->2.
        fam = make_family(["AAA", "AAC", "CCC"])
        g = knn_graph(fam, k=1)
        assert edge_set(g) == {(0, 1), (1, 0), (1, 2), (2, 1)}

    def test_matches_bruteforce_on_random_families(self):
        rng = np.random.default_rng(2)
        letters = list(ALPHABET)
        seqs = ["".join(letters[rng.integers(0, 4)] for _ in range(5)) for _ in range(12)]
        fam = make_family(seqs)
        for k in (1, 3, 5):
            g = knn_graph(fam, k=k)
            expected = set()
            for i in range(fam.m):
                dists = sorted(
                    (hamming(seqs[i], seqs[j]), j) for j in range(fam.m) if j != i
                )
                for _, j in dists[:k]:
                    expected.add((i, j))
                    expected.add((j, i))
            assert edge_set(g) == expected

    def test_saturation_is_complete_graph(self):
        fam = make_family(["AA", "AC", "CA", "CC"])
        g = knn_graph(fam, k=3)
        assert edge_set(g) == {(i, j) for i in range(4) for j in range(4) if i != j}

    def test_identical_sequences_are_mutual_neighbors(self):
        fam = make_family(["AAAA", "AAAA", "CCCC"])
        g = knn_graph(fam, k=1)
        assert (0, 1) in edge_set(g) and (1, 0) in edge_set(g)

    def test_k_must_be_below_m(self):
        fam = make_family(["AA", "AC"])
        with pytest.raises(ValueError, match="must be smaller"):
            knn_graph(fam, k=2)

    def test_permutation_invariance_after_id_sort(self):
        rng = np.random.default_rng(7)
        seqs = ["".join(ALPHABET[rng.integers(0, 3)] for _ in range(4)) for _ in range(9)]
        records = [
            ProteinRecord(f"r{i}", s, (0.0,), is_wild_type=i == 0)
            for i, s in enumerate(seqs)
        ]

        def id_edges(recs):
            fam = Family(sorted(recs, key=lambda r: r.id))
            g = knn_graph(fam, k=2)
            return {(fam.ids[i], fam.ids[j]) for i, j in edge_set(g)}

        shuffled = list(records)
        rng.shuffle(shuffled)
        assert id_edges(records) == id_edges(shuffled)

    @pytest.mark.usefixtures("fixed_workers")
    def test_paper_scale_family_in_bounded_memory(self):
        # Dense int32 and float64 M x M distance matrices would hold 805 MB here.
        rng = np.random.default_rng(4)
        wt = rng.integers(0, 20, size=32)
        encoded = np.repeat(wt[None, :], 8192, axis=0)
        hits = rng.random(encoded.shape) < 0.1
        encoded[hits] = (encoded[hits] + rng.integers(1, 20, size=hits.sum())) % 20
        fam = make_family(["".join(ALPHABET[c] for c in row) for row in encoded])
        tracemalloc.start()
        try:
            g = knn_graph(fam, k=10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 160e6
        assert g.n_nodes == 8192
        assert np.all(np.bincount(g.edges[:, 0], minlength=8192) >= 10)


class TestGraphEdges:
    EDGES = np.array([[0, 1], [0, 2], [1, 0], [2, 0]])

    def test_valid_edges_accepted(self):
        assert Graph(3, self.EDGES).edges is self.EDGES
        unsigned = Graph(3, self.EDGES.astype(np.uint32)).edges
        assert unsigned.dtype == np.int64 and np.array_equal(unsigned, self.EDGES)
        assert Graph(3, np.zeros((0, 2), dtype=np.int64)).edges.shape == (0, 2)

    @pytest.mark.parametrize(
        "edges,message",
        [
            (np.array([0, 1, 1, 0]), r"\(E, 2\) integer array, got \(4,\) int64"),
            ([[0, 1], [1, 0]], r"\(E, 2\) integer array, got list"),
            (np.array([[0.0, 1.0], [1.0, 0.0]]), r"integer array, got \(2, 2\) float64"),
            (np.array([[0, -1], [-1, 0]]), r"out of range \[0, 3\)"),
            (np.array([[0, 3], [3, 0]]), r"out of range \[0, 3\)"),
            (np.array([[0, 0], [0, 1]]), "self-loops"),
            (np.array([[0, 1], [0, 1], [1, 0]]), "duplicate edges"),
            (np.array([[1, 0], [0, 1]]), "lexicographic order"),
        ],
        ids=["shape", "not-array", "dtype", "negative", "too-large", "self-loop",
             "duplicate", "order"],
    )
    def test_invalid_edges_rejected(self, edges, message):
        with pytest.raises(ValueError, match=message):
            Graph(3, edges)


def zero_spec(**kw):
    base = dict(
        n=6,
        m=10,
        max_mutations=3,
        additive=np.zeros((6, 20)),
        epistasis=[],
        noise_std=0.0,
        seed=13,
    )
    base.update(kw)
    return LandscapeSpec(**base)


class TestSynthFamily:
    def test_zero_landscape_gives_zero_targets(self):
        fam = synth_family(zero_spec())
        np.testing.assert_array_equal(fam.targets, 0.0)

    def test_additive_decomposition_oracle(self):
        rng = np.random.default_rng(21)
        spec = zero_spec(additive=rng.normal(size=(6, 20)), seed=5)
        fam = synth_family(spec)
        wt = fam.wild_type.sequence
        wt_y = fam.targets[fam.wild_type_index]
        for rec, y in zip(fam.records, fam.targets):
            delta = sum(
                spec.additive[p, AA_INDEX[rec.sequence[p]]]
                - spec.additive[p, AA_INDEX[wt[p]]]
                for p in range(6)
                if rec.sequence[p] != wt[p]
            )
            np.testing.assert_allclose(y, wt_y + delta, atol=1e-12)

    def test_epistatic_terms_apply(self):
        fam = synth_family(zero_spec(seed=3))
        wt = fam.wild_type.sequence
        spec = zero_spec(seed=3, epistasis=[(0, 1, wt[0], wt[1], 2.5)])
        fam2 = synth_family(spec)
        for rec, y in zip(fam2.records, fam2.targets):
            expected = 2.5 if rec.sequence[0] == wt[0] and rec.sequence[1] == wt[1] else 0.0
            assert y == expected

    def test_same_seed_is_byte_identical(self, tmp_path):
        a, b = synth_family(zero_spec()), synth_family(zero_spec())
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        save_family(a, pa)
        save_family(b, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_noise_does_not_disturb_sequences(self):
        quiet = synth_family(zero_spec())
        noisy = synth_family(zero_spec(noise_std=0.5))
        assert [r.sequence for r in quiet.records] == [
            r.sequence for r in noisy.records
        ]
        assert not np.allclose(noisy.targets, 0.0)

    def test_mutation_counts_within_bounds(self):
        fam = synth_family(zero_spec(m=50, max_mutations=3, seed=9))
        counts = fam.mutation_counts()
        assert counts[0] == 0
        assert np.all(counts[1:] >= 1) and np.all(counts[1:] <= 3)

    def test_json_round_trip(self):
        spec = zero_spec(epistasis=[(0, 2, "A", "C", 1.5)])
        again = LandscapeSpec.from_json(spec.to_json())
        assert again.to_json() == spec.to_json()

    def test_unknown_json_key_rejected(self):
        doc = zero_spec().to_json()
        doc["bogus"] = 1
        with pytest.raises(ValueError, match="unknown landscape keys"):
            LandscapeSpec.from_json(doc)


class TestLandscapeSpecChecks:
    """Spec values are checked like run configs: integers but not booleans,
    finite numbers, and no coercion. The CLI tests cover the cases that
    reach ``evolmpnn synth``."""

    @pytest.mark.parametrize(
        "key,value,message",
        [
            ("seed", -3, "seed must be >= 0, got -3"),
            ("additive", [["0.5"] * 20] * 6, "additive weights must be finite numbers"),
            ("additive", [[True] + [0.5] * 19] * 6, "additive weights must be finite numbers"),
            ("additive", [[float("nan")] * 20] * 6, "additive weights must be finite numbers"),
        ],
    )
    def test_bad_value_is_named(self, key, value, message):
        doc = {**zero_spec().to_json(), key: value}
        with pytest.raises(ValueError) as err:
            LandscapeSpec.from_json(doc)
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "entry,bad",
        [
            ([0, 1, "A", "C"], "got [0, 1, 'A', 'C']"),
            ([0, True, "A", "C", 1.0], "True is not an integer"),
            ([0, 1, "A", 3, 1.0], "3 is not a string"),
            ([0, 1, "A", "C", "2"], "'2' is not a finite number"),
            ([0, 1, "A", "C", float("nan")], "nan is not a finite number"),
        ],
    )
    def test_epistasis_entry_is_int_int_str_str_number(self, entry, bad):
        with pytest.raises(ValueError) as err:
            zero_spec(epistasis=[(0, 1, "A", "C", 1.0), entry])
        assert str(err.value).startswith("epistasis[1] must be [int, int, str, str, number]")
        assert str(err.value).endswith(bad)
