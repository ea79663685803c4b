"""Homologous protein families: ingestion, splits, K-NN graphs, synthesis.

All operations are pure given their inputs and a seed, so shared Family
values are safe to read from multiple threads.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

ALPHABET = "ACDEFGHIKLMNPQRSTVWY"
AA_INDEX = {a: i for i, a in enumerate(ALPHABET)}

SPLIT_TAGS = ("train", "valid", "test")


class FamilyError(ValueError):
    """Raised when family data violates an ingestion invariant."""


class SplitError(ValueError):
    """Raised when a split cannot be constructed or is inconsistent."""


@dataclass(frozen=True)
class ProteinRecord:
    """One mutant: aligned sequence plus its measured property values."""

    id: str
    sequence: str
    target: tuple[float, ...]
    is_wild_type: bool = False


@dataclass
class Family:
    """An ordered set of equal-length mutants sharing one wild type."""

    records: list[ProteinRecord]
    n: int = field(init=False)
    m: int = field(init=False)
    wild_type_index: int = field(init=False)

    def __post_init__(self):
        if len(self.records) < 2:
            raise FamilyError("a family needs at least 2 records")
        lengths = {len(r.sequence) for r in self.records}
        if len(lengths) != 1:
            raise FamilyError("unequal sequence lengths across records")
        self.n = lengths.pop()
        self.m = len(self.records)
        ids = [r.id for r in self.records]
        if len(set(ids)) != self.m:
            raise FamilyError("duplicate record ids")
        wt = [i for i, r in enumerate(self.records) if r.is_wild_type]
        if len(wt) != 1:
            raise FamilyError(f"expected exactly one wild-type record, found {len(wt)}")
        self.wild_type_index = wt[0]
        theta = {len(r.target) for r in self.records}
        if len(theta) != 1:
            raise FamilyError("records disagree on target dimension")
        for r in self.records:
            bad = set(r.sequence) - set(ALPHABET)
            if bad:
                raise FamilyError(f"invalid residue {sorted(bad)} in record {r.id!r}")
            if not all(math.isfinite(t) for t in r.target):
                raise FamilyError(f"non-finite target in record {r.id!r}")
        self._ids = ids
        self._index = {rid: i for i, rid in enumerate(ids)}
        self._encoded = np.array(
            [[AA_INDEX[a] for a in r.sequence] for r in self.records], dtype=np.uint8
        )
        self._targets = np.array([r.target for r in self.records], dtype=np.float64)

    @property
    def ids(self) -> list[str]:
        return self._ids

    @property
    def wild_type(self) -> ProteinRecord:
        return self.records[self.wild_type_index]

    @property
    def theta(self) -> int:
        return self._targets.shape[1]

    @property
    def encoded(self) -> np.ndarray:
        """Sequences as an M x N uint8 matrix of alphabet indices."""
        return self._encoded

    @property
    def targets(self) -> np.ndarray:
        """Targets as an M x theta float matrix."""
        return self._targets

    def index_of(self, record_id: str) -> int:
        return self._index[record_id]

    def mutation_counts(self) -> np.ndarray:
        """Hamming distance of every record to the wild type."""
        wt = self._encoded[self.wild_type_index]
        return (self._encoded != wt).sum(axis=1)


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------

FAMILY_HEADER = ["id", "sequence", "target", "is_wild_type"]


def load_family(path) -> Family:
    """Read a family CSV (header ``id,sequence,target,is_wild_type``).

    Every violation is reported with its 1-based data row number.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise FamilyError(f"{path}: empty file") from None
        if [h.strip() for h in header] != FAMILY_HEADER:
            raise FamilyError(
                f"{path}: expected header {','.join(FAMILY_HEADER)}, got {','.join(header)}"
            )
        records: list[ProteinRecord] = []
        seen: set[str] = set()
        length: int | None = None
        for row_no, row in enumerate(reader, start=1):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != 4:
                raise FamilyError(f"{path}: wrong column count at row {row_no}")
            rid, seq, target_text, wt_text = (c.strip() for c in row)
            if not rid:
                raise FamilyError(f"{path}: empty id at row {row_no}")
            if rid in seen:
                raise FamilyError(f"{path}: duplicate id {rid!r} at row {row_no}")
            seen.add(rid)
            bad = set(seq) - set(ALPHABET)
            if bad:
                raise FamilyError(
                    f"{path}: invalid residue {sorted(bad)} at row {row_no}"
                )
            if length is None:
                length = len(seq)
            elif len(seq) != length:
                raise FamilyError(f"{path}: unequal sequence lengths at row {row_no}")
            try:
                target = float(target_text)
            except ValueError:
                raise FamilyError(
                    f"{path}: non-numeric target {target_text!r} at row {row_no}"
                ) from None
            if wt_text not in ("0", "1"):
                raise FamilyError(
                    f"{path}: is_wild_type must be 0 or 1 at row {row_no}"
                )
            records.append(
                ProteinRecord(rid, seq, (target,), is_wild_type=wt_text == "1")
            )
    wt_count = sum(r.is_wild_type for r in records)
    if wt_count == 0:
        raise FamilyError(f"{path}: no wild-type row")
    if wt_count > 1:
        raise FamilyError(f"{path}: {wt_count} wild-type rows, expected 1")
    return Family(records)


def save_family(family: Family, path) -> None:
    """Write a family back out in the ingestion CSV format (theta must be 1)."""
    if family.theta != 1:
        raise FamilyError("family CSV carries scalar targets only")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(FAMILY_HEADER)
        for r in family.records:
            writer.writerow([r.id, r.sequence, repr(r.target[0]), int(r.is_wild_type)])


# ---------------------------------------------------------------------------
# Splits
# ---------------------------------------------------------------------------


@dataclass
class SplitAssignment:
    """Maps every family id to train/valid/test, with provenance."""

    tags: dict[str, str]
    provenance: dict

    def __post_init__(self):
        bad = {t for t in self.tags.values()} - set(SPLIT_TAGS)
        if bad:
            raise SplitError(f"unknown split tags: {sorted(bad)}")
        if not any(t == "train" for t in self.tags.values()):
            raise SplitError("train set is empty")

    def ids(self, tag: str) -> list[str]:
        return [rid for rid, t in self.tags.items() if t == tag]

    def counts(self) -> dict[str, int]:
        return {tag: sum(t == tag for t in self.tags.values()) for tag in SPLIT_TAGS}

    def rows(self, family: Family, tag: str) -> list[int]:
        return [i for i, rid in enumerate(family.ids) if self.tags[rid] == tag]


def save_split(split: SplitAssignment, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "split"])
        for rid, tag in split.tags.items():
            writer.writerow([rid, tag])


def load_split(path, family: Family | None = None) -> SplitAssignment:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["id", "split"]:
            raise SplitError(f"{path}: expected header id,split")
        tags: dict[str, str] = {}
        for row_no, row in enumerate(reader, start=1):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != 2:
                raise SplitError(f"{path}: wrong column count at row {row_no}")
            rid, tag = row[0].strip(), row[1].strip()
            if tag not in SPLIT_TAGS:
                raise SplitError(f"{path}: unknown tag {tag!r} at row {row_no}")
            if rid in tags:
                raise SplitError(f"{path}: duplicate id {rid!r} at row {row_no}")
            tags[rid] = tag
    split = SplitAssignment(tags, {"name": "loaded", "path": str(path)})
    if family is not None:
        missing = set(family.ids) - set(tags)
        extra = set(tags) - set(family.ids)
        if missing or extra:
            raise SplitError(
                f"{path}: split does not cover the family exactly "
                f"(missing {sorted(missing)[:3]}, extra {sorted(extra)[:3]})"
            )
    return split


def _carve_validation(
    family: Family, pool_rows: list[int], valid_frac: float, seed: int
) -> dict[str, str]:
    """Tag every record: the pool splits into train/valid, the rest is test.

    The wild type stays in train. The validation count is
    ceil(valid_frac * pool); this reproduces the published per-split counts
    for every benchmark family size.
    """
    if not 0 < valid_frac < 1:
        raise SplitError(f"valid_frac must be in (0,1), got {valid_frac}")
    wt = family.wild_type_index
    candidates = [r for r in pool_rows if r != wt]
    n_valid = min(math.ceil(valid_frac * len(pool_rows)), len(candidates))
    rng = np.random.default_rng(seed)
    chosen = rng.choice(len(candidates), size=n_valid, replace=False) if n_valid else []
    valid = {candidates[i] for i in np.sort(np.asarray(chosen, dtype=int))}
    pool = set(pool_rows)
    return {
        rid: "valid" if i in valid else "train" if i in pool else "test"
        for i, rid in enumerate(family.ids)
    }


def split_lambda_vs_rest(
    family: Family, lam: int, valid_frac: float = 0.1, seed: int = 0
) -> SplitAssignment:
    """Train on mutants within ``lam`` substitutions of the wild type."""
    if lam < 1:
        raise SplitError(f"lambda must be >= 1, got {lam}")
    counts = family.mutation_counts()
    pool_rows = [i for i in range(family.m) if counts[i] <= lam]
    if not pool_rows:
        raise SplitError(f"lambda={lam} produces an empty train pool")
    tags = _carve_validation(family, pool_rows, valid_frac, seed)
    if not any(t == "test" for t in tags.values()):
        warnings.warn(f"lambda={lam} leaves the test set empty", stacklevel=2)
    return SplitAssignment(
        tags,
        {"name": "lambda-vs-rest", "lambda": lam, "valid_frac": valid_frac, "seed": seed},
    )


def split_low_vs_high(
    family: Family, valid_frac: float = 0.1, seed: int = 0
) -> SplitAssignment:
    """Train on targets at or below the wild type's; test on the rest."""
    if family.theta != 1:
        raise SplitError("low-vs-high requires a scalar target")
    y = family.targets[:, 0]
    wt_y = y[family.wild_type_index]
    pool_rows = [i for i in range(family.m) if y[i] <= wt_y]
    if not pool_rows:
        raise SplitError("all targets above wild-type: empty train pool")
    tags = _carve_validation(family, pool_rows, valid_frac, seed)
    if not any(t == "test" for t in tags.values()):
        warnings.warn("no target above the wild-type's: test set empty", stacklevel=2)
    return SplitAssignment(
        tags, {"name": "low-vs-high", "valid_frac": valid_frac, "seed": seed}
    )


# ---------------------------------------------------------------------------
# K-NN graphs
# ---------------------------------------------------------------------------


@dataclass
class Graph:
    """Union-symmetrized K-NN adjacency with unit edge weights."""

    n_nodes: int
    k: int
    edges: np.ndarray  # (E, 2) int array, both directions, no self loops
    metric: str = "hamming"

    def __post_init__(self):
        if self.edges.size and (self.edges[:, 0] == self.edges[:, 1]).any():
            raise ValueError("graph contains self-loops")

    def dense(self, dtype=np.float64) -> np.ndarray:
        a = np.zeros((self.n_nodes, self.n_nodes), dtype=dtype)
        if self.edges.size:
            a[self.edges[:, 0], self.edges[:, 1]] = 1.0
        return a


def pairwise_hamming(encoded: np.ndarray, block: int = 256) -> np.ndarray:
    """Dense M x M Hamming distance matrix over encoded sequences."""
    m = encoded.shape[0]
    out = np.zeros((m, m), dtype=np.int32)
    for start in range(0, m, block):
        stop = min(start + block, m)
        out[start:stop] = (encoded[start:stop, None, :] != encoded[None, :, :]).sum(
            axis=2
        )
    return out


def knn_graph(
    family: Family, k: int, metric: str = "hamming", features: np.ndarray | None = None
) -> Graph:
    """Directed K-NN under the metric, symmetrized by union.

    Distance ties break on ascending record index. ``features`` switches the
    metric source to Euclidean distance over a precomputed M x f matrix.
    """
    m = family.m
    if k < 1:
        raise ValueError(f"K must be >= 1, got {k}")
    if k >= m:
        raise ValueError(f"K={k} must be smaller than the family size M={m}")
    if features is not None:
        feats = np.asarray(features, dtype=np.float64)
        if feats.shape[0] != m:
            raise ValueError("feature matrix row count must equal family size")
        sq = (feats**2).sum(axis=1)
        dist = np.sqrt(np.maximum(sq[:, None] + sq[None, :] - 2 * feats @ feats.T, 0.0))
        metric_name = "euclidean-features"
    elif metric == "hamming":
        dist = pairwise_hamming(family.encoded).astype(np.float64)
        metric_name = "hamming"
    else:
        raise ValueError(f"unknown metric {metric!r}")
    np.fill_diagonal(dist, np.inf)
    pairs: set[tuple[int, int]] = set()
    index = np.arange(m)
    for i in range(m):
        order = np.lexsort((index, dist[i]))
        for j in order[:k]:
            pairs.add((i, int(j)))
            pairs.add((int(j), i))
    edges = np.array(sorted(pairs), dtype=np.int64).reshape(-1, 2)
    return Graph(n_nodes=m, k=k, edges=edges, metric=metric_name)


# ---------------------------------------------------------------------------
# Synthetic landscapes
# ---------------------------------------------------------------------------


@dataclass
class LandscapeSpec:
    """Additive-plus-pairwise fitness function over random mutants."""

    n: int
    m: int
    max_mutations: int
    additive: np.ndarray  # (n, 20) per-position residue weights
    epistasis: list[tuple[int, int, str, str, float]]
    noise_std: float = 0.0
    seed: int = 0

    def __post_init__(self):
        self.additive = np.asarray(self.additive, dtype=np.float64)
        if self.n < 1 or self.m < 2:
            raise ValueError("landscape needs n >= 1 and m >= 2")
        if not 1 <= self.max_mutations <= self.n:
            raise ValueError("max_mutations must be in [1, n]")
        if self.additive.shape != (self.n, len(ALPHABET)):
            raise ValueError(
                f"additive weights must be ({self.n}, {len(ALPHABET)}), "
                f"got {self.additive.shape}"
            )
        if not np.all(np.isfinite(self.additive)):
            raise ValueError("additive weights must be finite")
        if self.noise_std < 0:
            raise ValueError("noise_std must be >= 0")
        for p, q, a, b, w in self.epistasis:
            if not (0 <= p < self.n and 0 <= q < self.n):
                raise ValueError(f"epistatic positions ({p},{q}) out of range")
            if a not in AA_INDEX or b not in AA_INDEX:
                raise ValueError(f"epistatic residues ({a},{b}) not in alphabet")
            if not math.isfinite(w):
                raise ValueError("epistatic weight must be finite")

    @classmethod
    def from_json(cls, doc: dict) -> "LandscapeSpec":
        known = {"n", "m", "max_mutations", "additive", "epistasis", "noise_std", "seed"}
        unknown = set(doc) - known
        if unknown:
            raise ValueError(f"unknown landscape keys: {sorted(unknown)}")
        epi = [
            (int(p), int(q), str(a), str(b), float(w))
            for p, q, a, b, w in doc.get("epistasis", [])
        ]
        return cls(
            n=int(doc["n"]),
            m=int(doc["m"]),
            max_mutations=int(doc["max_mutations"]),
            additive=np.asarray(doc["additive"], dtype=np.float64),
            epistasis=epi,
            noise_std=float(doc.get("noise_std", 0.0)),
            seed=int(doc.get("seed", 0)),
        )

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "max_mutations": self.max_mutations,
            "additive": self.additive.tolist(),
            "epistasis": [list(t) for t in self.epistasis],
            "noise_std": self.noise_std,
            "seed": self.seed,
        }


def load_landscape_spec(path) -> LandscapeSpec:
    with open(path, encoding="utf-8") as fh:
        return LandscapeSpec.from_json(json.load(fh))


@dataclass
class SynthResult:
    """A generated family plus its noise-free ground truth."""

    family: Family
    clean_targets: np.ndarray
    spec: LandscapeSpec


def landscape_value(spec: LandscapeSpec, encoded: np.ndarray) -> np.ndarray:
    """Noise-free target for encoded sequences (rows of alphabet indices)."""
    rows = np.atleast_2d(encoded)
    y = spec.additive[np.arange(spec.n)[None, :], rows].sum(axis=1)
    for p, q, a, b, w in spec.epistasis:
        hit = (rows[:, p] == AA_INDEX[a]) & (rows[:, q] == AA_INDEX[b])
        y = y + w * hit
    return y


def synth_family(spec: LandscapeSpec) -> SynthResult:
    """Sample a wild type plus M-1 random mutants and score them.

    Sequences are drawn before any noise, so two specs differing only in
    noise_std produce identical mutants for the same seed.
    """
    rng = np.random.default_rng(spec.seed)
    n_letters = len(ALPHABET)
    wt = rng.integers(0, n_letters, size=spec.n, dtype=np.uint8)
    encoded = np.empty((spec.m, spec.n), dtype=np.uint8)
    encoded[0] = wt
    for i in range(1, spec.m):
        seq = wt.copy()
        n_mut = int(rng.integers(1, spec.max_mutations + 1))
        positions = rng.choice(spec.n, size=n_mut, replace=False)
        for p in positions:
            # Uniform over the 19 residues that differ from the current one.
            shift = int(rng.integers(1, n_letters))
            seq[p] = (seq[p] + shift) % n_letters
        encoded[i] = seq
    clean = landscape_value(spec, encoded)
    noise = rng.normal(0.0, spec.noise_std, size=spec.m) if spec.noise_std > 0 else 0.0
    targets = clean + noise
    width = len(str(spec.m - 1))
    records = [
        ProteinRecord("WT", "".join(ALPHABET[c] for c in wt), (float(targets[0]),), True)
    ]
    for i in range(1, spec.m):
        records.append(
            ProteinRecord(
                f"M{i:0{width}d}",
                "".join(ALPHABET[c] for c in encoded[i]),
                (float(targets[i]),),
                False,
            )
        )
    return SynthResult(Family(records), clean, spec)
