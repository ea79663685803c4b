"""Homologous protein families: ingestion, splits, K-NN graphs, synthesis.

All operations are pure given their inputs and a seed, so shared Family
values are safe to read from multiple threads. The one row-block layer of
the package lives here too: one byte budget, and ``map_blocks``, which
sizes the blocks of every blocked loop and runs them through one ordered
worker loop on up to one worker per CPU the process may use: the calling
thread alone, or with the threads of a pool.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import os
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field, fields

import numpy as np

ALPHABET = "ACDEFGHIKLMNPQRSTVWY"
AA_INDEX = {a: i for i, a in enumerate(ALPHABET)}

SPLIT_TAGS = ("train", "valid", "test")


class FamilyError(ValueError):
    """Raised when family data violates an ingestion invariant."""


class SplitError(ValueError):
    """Raised when a split cannot be constructed or is inconsistent."""


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


_FIELD_KINDS = {
    "int": ("an integer", _is_int),
    "float": (
        "a finite number",
        lambda v: (_is_int(v) or isinstance(v, float)) and math.isfinite(v),
    ),
    "bool": ("true or false", lambda v: isinstance(v, bool)),
    "str": ("a string", lambda v: isinstance(v, str)),
}


def check_field_types(config) -> None:
    """Reject config values that do not match their field's annotation.

    Annotations are read as written (``int``, ``float``, ``bool`` or
    ``str``, optionally ``| None``): ints pass as floats, bools pass only as
    bools, and floats must be finite. Fields with any other annotation are
    left to the caller.
    """
    for f in fields(config):
        value = getattr(config, f.name)
        kind, _, optional = f.type.partition(" | ")
        if kind not in _FIELD_KINDS or (value is None and optional):
            continue
        description, accepts = _FIELD_KINDS[kind]
        if not accepts(value):
            raise ValueError(f"{f.name} must be {description}, got {value!r}")


def check_known_keys(cls, doc: dict, what: str) -> None:
    """Reject keys of ``doc`` that are not fields of the dataclass ``cls``,
    as ``unknown <what>: [sorted keys]``."""
    unknown = set(doc) - {f.name for f in fields(cls)}
    if unknown:
        raise ValueError(f"unknown {what}: {sorted(unknown)}")


def decode_json(raw: bytes, path, error: type[ValueError] = ValueError):
    """The UTF-8 JSON document ``raw`` read from ``path``; bytes that are
    not one raise ``error`` naming the path."""
    try:
        return json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise error(f"{path}: not a UTF-8 JSON document ({err})") from err


@dataclass(frozen=True)
class ProteinRecord:
    """One mutant: aligned sequence plus its measured property as a 1-tuple."""

    id: str
    sequence: str
    target: tuple[float]
    is_wild_type: bool = False


@dataclass
class Family:
    """An ordered set of equal-length mutants sharing one wild type.

    ``protein_feats`` (M x d) and ``residue_feats`` (M x N x d) optionally
    hold precomputed sidecar features, one row per record in record order.
    """

    records: list[ProteinRecord]
    protein_feats: np.ndarray | None = field(default=None, compare=False, repr=False)
    residue_feats: np.ndarray | None = field(default=None, compare=False, repr=False)
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
        for r in self.records:
            bad = set(r.sequence) - set(ALPHABET)
            if bad:
                raise FamilyError(f"invalid residue {sorted(bad)} in record {r.id!r}")
            if len(r.target) != 1:
                raise FamilyError(
                    f"record {r.id!r} has {len(r.target)} target values, expected 1"
                )
            if not math.isfinite(r.target[0]):
                raise FamilyError(f"non-finite target in record {r.id!r}")
        self._ids = ids
        self._index = {rid: i for i, rid in enumerate(ids)}
        self._encoded = np.array(
            [[AA_INDEX[a] for a in r.sequence] for r in self.records], dtype=np.uint8
        )
        self._targets = np.array([r.target[0] for r in self.records], dtype=np.float64)
        for name, lead in (("protein_feats", (self.m,)), ("residue_feats", (self.m, self.n))):
            feats = getattr(self, name)
            if feats is not None and (feats.ndim != len(lead) + 1 or feats.shape[:-1] != lead):
                raise FamilyError(f"{name} has shape {feats.shape}, expected {lead} + (d,)")

    @property
    def ids(self) -> list[str]:
        return self._ids

    @property
    def wild_type(self) -> ProteinRecord:
        return self.records[self.wild_type_index]

    @property
    def encoded(self) -> np.ndarray:
        """Sequences as an M x N uint8 matrix of alphabet indices."""
        return self._encoded

    @property
    def targets(self) -> np.ndarray:
        """Targets as an M-long float64 vector, one value per record."""
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
            if not math.isfinite(target):
                raise FamilyError(f"{path}: non-finite target {target_text!r} at row {row_no}")
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
    if len(records) < 2:
        raise FamilyError(f"{path}: a family needs at least 2 records, got {len(records)}")
    return Family(records)


def save_family(family: Family, path) -> None:
    """Write a family back out in the ingestion CSV format."""
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
    """Maps every family id to train/valid/test."""

    tags: dict[str, str]

    def __post_init__(self):
        bad = {t for t in self.tags.values()} - set(SPLIT_TAGS)
        if bad:
            raise SplitError(f"unknown split tags: {sorted(bad)}")
        if not any(t == "train" for t in self.tags.values()):
            raise SplitError("train set is empty")

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
    split = SplitAssignment(tags)
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
    if not (_is_int(seed) or isinstance(seed, np.integer)) or seed < 0:
        raise SplitError(f"seed must be an integer >= 0, got {seed!r}")
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
    return SplitAssignment(tags)


def split_low_vs_high(
    family: Family, valid_frac: float = 0.1, seed: int = 0
) -> SplitAssignment:
    """Train on targets at or below the wild type's; test on the rest."""
    y = family.targets
    wt_y = y[family.wild_type_index]
    pool_rows = [i for i in range(family.m) if y[i] <= wt_y]
    if not pool_rows:
        raise SplitError("all targets above wild-type: empty train pool")
    tags = _carve_validation(family, pool_rows, valid_frac, seed)
    if not any(t == "test" for t in tags.values()):
        warnings.warn("no target above the wild-type's: test set empty", stacklevel=2)
    return SplitAssignment(tags)


# ---------------------------------------------------------------------------
# K-NN graphs
# ---------------------------------------------------------------------------


@dataclass
class Graph:
    """Union-symmetrized K-NN graph with unit edge weights, as an edge list.

    ``edges`` is an (E, 2) integer array of (i, j) pairs, node i receiving
    from node j, stored as int64. It holds both directions of every neighbor
    pair, indices in [0, n_nodes), no self-loops and no duplicates, in
    lexicographic order: message sums add each node's terms in that order.
    """

    n_nodes: int
    edges: np.ndarray

    def __post_init__(self):
        e = self.edges
        if not isinstance(e, np.ndarray):
            raise ValueError(f"edges must be an (E, 2) integer array, got {type(e).__name__}")
        if e.ndim != 2 or e.shape[1] != 2 or e.dtype.kind not in "iu":
            raise ValueError(f"edges must be an (E, 2) integer array, got {e.shape} {e.dtype}")
        self.edges = e = e.astype(np.int64, copy=False)
        if e.size and (e.min() < 0 or e.max() >= self.n_nodes):
            raise ValueError(f"edge index out of range [0, {self.n_nodes})")
        if (e[:, 0] == e[:, 1]).any():
            raise ValueError("graph contains self-loops")
        step = np.diff(np.ravel_multi_index(e.T, (self.n_nodes, self.n_nodes)))
        if (step == 0).any():
            raise ValueError("graph contains duplicate edges")
        if (step < 0).any():
            raise ValueError("edges must be in lexicographic order")


# Bytes per block of every blocked loop: the all-pairs helpers (K-NN, Hamming
# matrix, distortion) and the edge blocks of ``autodiff`` charge their
# scratch, and the encode and query blocks of ``autodiff.map_rows``, in
# training and inference alike, ``residue_encoder.LOGIT_BYTES`` per
# attention logit. Blocks near the CPU caches ran fastest: 64 proteins at
# N = 32 beat larger blocks whose activations no longer fit. ``map_blocks``
# keeps one block in flight per worker thread, so their scratch is W times
# this.
_BLOCK_BYTES = 4 << 20


def _block_rows(bytes_per_row: int) -> int:
    """Rows per block when each row needs ``bytes_per_row`` of scratch."""
    return max(1, _BLOCK_BYTES // bytes_per_row)


# The W workers of the blocked loops are the calling thread and the W - 1
# threads of this pool, W being the CPUs the process may use; with one CPU
# there is no pool and loops run serially. The executor starts its threads
# on first use.
if hasattr(os, "sched_getaffinity"):
    _workers = len(os.sched_getaffinity(0))
else:
    _workers = os.cpu_count() or 1
_POOL = ThreadPoolExecutor(_workers - 1, thread_name_prefix="evolmpnn") if _workers > 1 else None
# ``active`` while this thread runs blocks: a loop started from a block runs
# serially, so no block waits on pool threads that may all be held by blocks.
_in_block = threading.local()

# A loop of B blocks runs on max(1, min(W, B // _MIN_BLOCKS_PER_WORKER))
# workers, so each worker has blocks to spare when another is slowed (by the
# GIL, or by a host that takes its CPU away). On a 2-CPU host a training
# step's encode loop of 390 proteins (7 blocks) gained 1.0-1.3x from a second
# thread, and its train rate varied 2-5 times more across runs than on one
# thread; loops of 16 or more blocks gained 1.3-2x.
_MIN_BLOCKS_PER_WORKER = 4


def map_blocks(fn, n_rows: int, bytes_per_row: int, consume=None) -> list | None:
    """``[fn(lo, hi), ...]`` over the blocks [lo, hi) of ``n_rows`` rows, in
    order, spread over the calling thread and the pool's threads.

    Each block has ``_block_rows(bytes_per_row)`` rows but the last, and
    there is always at least one: with no rows it is ``fn(0, 0)``. Every
    ``fn(lo, hi)`` must depend only on its own block and write nothing
    another block reads, so the results do not depend on the worker count.
    A loop of B blocks has max(1, min(W, B // _MIN_BLOCKS_PER_WORKER))
    workers: this thread, which starts on the first block at once, and pool
    threads. Every worker runs the same loop, taking the next block that no
    one has taken, so a pool thread that wakes late only takes fewer blocks;
    with one worker this thread runs that loop alone. A loop started from a
    block runs serially in that block's thread, so blocks never start pool
    work and nested use cannot deadlock. The exception of the first failing
    block, in order, reaches the caller unchanged once the blocks in flight
    have finished; every block before it has run, and no block after it
    starts.

    Each result is delivered in block order, one at a time, as soon as its
    block and every block before it have finished: appended to the returned
    list or, with ``consume``, passed to ``consume(result)`` and dropped, in
    which case nothing is returned. With ``consume`` no worker starts a
    block 2W or more blocks past the first one not yet consumed, so at most
    2W results wait at once.
    """
    step = _block_rows(bytes_per_row)
    bounds = [(lo, min(lo + step, n_rows)) for lo in range(0, n_rows, step)] or [(0, 0)]
    workers = 1
    if _POOL is not None and not getattr(_in_block, "active", False):
        workers = max(1, min(_POOL._max_workers + 1, len(bounds) // _MIN_BLOCKS_PER_WORKER))
    results = [] if consume is None else None
    deliver = results.append if consume is None else consume
    finished = {}  # results not yet delivered, by block
    failures = {}
    delivered = 0
    # Guards the three above; wakes workers that wait for ``delivered``.
    state = threading.Condition()
    # next() on a count is atomic, so each block index is taken exactly once.
    taken = itertools.count()

    def far_ahead(i):
        return consume is not None and i < len(bounds) and i - delivered >= 2 * workers

    def take_blocks():
        nonlocal delivered
        outer = getattr(_in_block, "active", False)
        _in_block.active = True
        try:
            for i in taken:
                with state:
                    # The worker on block ``delivered`` never waits here.
                    state.wait_for(lambda: failures or not far_ahead(i))
                    if i >= len(bounds) or any(j < i for j in failures):
                        return
                try:
                    result = fn(*bounds[i])
                    with state:
                        finished[i] = result
                        while delivered in finished:
                            deliver(finished.pop(delivered))
                            delivered += 1
                        state.notify_all()
                except BaseException as err:
                    with state:
                        failures[i] = err
                        state.notify_all()
                    return
        finally:
            _in_block.active = outer

    helpers = [_POOL.submit(take_blocks) for _ in range(workers - 1)]
    try:
        take_blocks()
    finally:
        # A helper that has not started by now would find no block left.
        for helper in helpers:
            helper.cancel()
        wait(helpers)
    if failures:
        raise failures[min(failures)]
    return results


def _hamming_rows(encoded: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Hamming distances from rows start..stop-1 to every row."""
    return (encoded[start:stop, None, :] != encoded[None, :, :]).sum(axis=2)


def pairwise_hamming(encoded: np.ndarray) -> np.ndarray:
    """Dense M x M Hamming distance matrix over encoded sequences."""
    m, n = encoded.shape
    out = np.zeros((m, m), dtype=np.int32)

    def fill(lo, hi):
        out[lo:hi] = _hamming_rows(encoded, lo, hi)

    # Per row: an M x N bool comparison and an M-long int64 row of counts.
    map_blocks(fill, m, m * (n + 8))
    return out


def knn_graph(family: Family, k: int) -> Graph:
    """Directed K-NN under Hamming distance, symmetrized by union.

    Distance ties break on ascending record index. Distances are computed
    for one block of rows per worker thread at a time, so memory stays
    O(W * M * block) for W workers.
    """
    m = family.m
    if k < 1:
        raise ValueError(f"K must be >= 1, got {k}")
    if k >= m:
        raise ValueError(f"K={k} must be smaller than the family size M={m}")
    index = np.arange(m)
    nearest = np.empty((m, k), dtype=np.int64)

    def fill(lo, hi):
        # One key per candidate orders by distance, then by record index.
        key = _hamming_rows(family.encoded, lo, hi) * m + index
        key[index[: hi - lo], index[lo:hi]] = np.iinfo(np.int64).max  # not self
        nearest[lo:hi] = np.argpartition(key, k - 1, axis=1)[:, :k]

    # Per row: an M x N bool comparison and three M-long int64 rows
    # (distances, keys, partition).
    map_blocks(fill, m, m * (family.n + 24))
    rows, cols = np.repeat(index, k), nearest.reshape(-1)
    pairs = np.stack([np.concatenate([rows, cols]), np.concatenate([cols, rows])], axis=1)
    return Graph(n_nodes=m, edges=np.unique(pairs, axis=0))


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
    epistasis: list[tuple[int, int, str, str, float]] = field(default_factory=list)
    noise_std: float = 0.0
    seed: int = 0

    def __post_init__(self):
        check_field_types(self)
        _, is_number = _FIELD_KINDS["float"]
        if not all(map(is_number, np.asarray(self.additive, dtype=object).ravel())):
            raise ValueError("additive weights must be finite numbers")
        self.additive = np.asarray(self.additive, dtype=np.float64)
        if self.n < 1 or self.m < 2:
            raise ValueError("landscape needs n >= 1 and m >= 2")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 1 <= self.max_mutations <= self.n:
            raise ValueError("max_mutations must be in [1, n]")
        if self.additive.shape != (self.n, len(ALPHABET)):
            raise ValueError(
                f"additive weights must be ({self.n}, {len(ALPHABET)}), "
                f"got {self.additive.shape}"
            )
        if self.noise_std < 0:
            raise ValueError("noise_std must be >= 0")
        form = "[int, int, str, str, number]"
        if not isinstance(self.epistasis, (list, tuple)):
            raise ValueError(f"epistasis must be a list of {form}")
        for i, entry in enumerate(self.epistasis):
            if not isinstance(entry, (list, tuple)) or len(entry) != 5:
                raise ValueError(f"epistasis[{i}] must be {form}, got {entry!r}")
            for value, kind in zip(entry, ("int", "int", "str", "str", "float")):
                description, accepts = _FIELD_KINDS[kind]
                if not accepts(value):
                    raise ValueError(
                        f"epistasis[{i}] must be {form}: {value!r} is not {description}"
                    )
            p, q, a, b, _ = entry
            if not (0 <= p < self.n and 0 <= q < self.n):
                raise ValueError(f"epistatic positions ({p},{q}) out of range")
            if a not in AA_INDEX or b not in AA_INDEX:
                raise ValueError(f"epistatic residues ({a},{b}) not in alphabet")
        self.epistasis = [tuple(entry) for entry in self.epistasis]

    @classmethod
    def from_json(cls, doc: dict) -> "LandscapeSpec":
        """Build from a JSON object; values are type-checked, never coerced."""
        if not isinstance(doc, dict):
            raise ValueError("landscape spec must be a JSON object")
        check_known_keys(cls, doc, "landscape keys")
        for name in ("n", "m", "max_mutations", "additive"):
            if name not in doc:
                raise ValueError(f"landscape spec has no {name!r}")
        return cls(**doc)

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
    with open(path, "rb") as fh:
        return LandscapeSpec.from_json(decode_json(fh.read(), path))


def landscape_value(spec: LandscapeSpec, encoded: np.ndarray) -> np.ndarray:
    """Noise-free target for encoded sequences (rows of alphabet indices)."""
    rows = np.atleast_2d(encoded)
    y = spec.additive[np.arange(spec.n)[None, :], rows].sum(axis=1)
    for p, q, a, b, w in spec.epistasis:
        hit = (rows[:, p] == AA_INDEX[a]) & (rows[:, q] == AA_INDEX[b])
        y = y + w * hit
    return y


def synth_family(spec: LandscapeSpec) -> Family:
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
    noise = rng.normal(0.0, spec.noise_std, size=spec.m) if spec.noise_std > 0 else 0.0
    targets = landscape_value(spec, encoded) + noise
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
    return Family(records)
