"""Dataset ingestion, deterministic splitting, balancing, quality-shift
injection, and synthetic pool generation.

The on-disk format is a strict CSV with header
``id,f0,f1,...,f{d-1},label[,noise_tag]``: UTF-8, labels in {0,1}, float
features in decimal or scientific notation, no missing cells.  ``save_csv``
writes shortest-round-trip float representations so save -> load reproduces
feature values bit for bit.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataFormatError, DomainError
from .nncore import make_rng

Array = np.ndarray


@dataclass
class Dataset:
    """A labeled pool: parallel arrays of ids, features, labels and optional
    ground-truth corruption tags (synthetic data only)."""

    ids: Array            # (N,) str
    X: Array              # (N, d) float64
    y: Array              # (N,) int64
    noise_tags: Array | None = None   # (N,) bool

    def __post_init__(self):
        self.ids = np.asarray(self.ids, dtype=object)
        self.X = np.asarray(self.X, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.int64)
        if self.X.ndim != 2:
            raise DataFormatError(f"features must be 2-D, got shape {self.X.shape}")
        n = self.X.shape[0]
        if self.ids.shape != (n,) or self.y.shape != (n,):
            raise DataFormatError("ids, features and labels must have equal length")
        if len(set(self.ids.tolist())) != n:
            raise DataFormatError("instance ids must be unique")
        if not np.all(np.isfinite(self.X)):
            raise DataFormatError("features must be finite")
        if not np.all((self.y == 0) | (self.y == 1)):
            raise DataFormatError("labels must be 0 or 1")
        if self.noise_tags is not None:
            self.noise_tags = np.asarray(self.noise_tags, dtype=bool)
            if self.noise_tags.shape != (n,):
                raise DataFormatError("noise tags must match instance count")

    def __len__(self) -> int:
        return self.X.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.X.shape[1]

    def subset(self, indices) -> "Dataset":
        idx = np.asarray(indices, dtype=np.int64)
        return Dataset(  # integer-array indexing already copies
            ids=self.ids[idx],
            X=self.X[idx],
            y=self.y[idx],
            noise_tags=None if self.noise_tags is None else self.noise_tags[idx],
        )

    def class_counts(self) -> tuple[int, int]:
        return int(np.sum(self.y == 0)), int(np.sum(self.y == 1))


# ---------------------------------------------------------------------------
# CSV I/O
# ---------------------------------------------------------------------------


def _expected_header(d: int, with_tag: bool) -> list[str]:
    cols = ["id"] + [f"f{i}" for i in range(d)] + ["label"]
    if with_tag:
        cols.append("noise_tag")
    return cols


def load_csv(path) -> Dataset:
    """Parse the documented CSV format; row order is preserved."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(utf8_lines(fh, DataFormatError))
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError(f"{path}: empty file, header required") from None
        with_tag = header and header[-1] == "noise_tag"
        d = len(header) - 2 - (1 if with_tag else 0)
        if d < 1 or header != _expected_header(d, with_tag):
            raise DataFormatError(
                f"{path}: header must be id,f0,...,f{{d-1}},label[,noise_tag], got {header}"
            )
        ids, feats, labels, tags = [], [], [], []
        width = len(header)
        for lineno, row in enumerate(reader, start=2):
            if len(row) != width:
                raise DataFormatError(
                    f"{path}: row {lineno} has {len(row)} cells, expected {width}"
                )
            ids.append(row[0])
            try:
                vec = [float(cell) for cell in row[1 : 1 + d]]
            except ValueError as exc:
                raise DataFormatError(f"{path}: row {lineno}: {exc}") from None
            if not all(math.isfinite(v) for v in vec):
                raise DataFormatError(f"{path}: row {lineno}: non-finite feature value")
            feats.append(vec)
            if row[1 + d] not in ("0", "1"):
                raise DataFormatError(
                    f"{path}: row {lineno}: label must be 0 or 1, got {row[1 + d]!r}"
                )
            labels.append(int(row[1 + d]))
            if with_tag:
                if row[-1] not in ("0", "1"):
                    raise DataFormatError(
                        f"{path}: row {lineno}: noise_tag must be 0 or 1, got {row[-1]!r}"
                    )
                tags.append(row[-1] == "1")
    if not ids:
        raise DataFormatError(f"{path}: no data rows")
    return Dataset(
        ids=np.array(ids, dtype=object),
        X=np.array(feats, dtype=np.float64),
        y=np.array(labels, dtype=np.int64),
        noise_tags=np.array(tags, dtype=bool) if with_tag else None,
    )


def save_csv(ds: Dataset, path) -> None:
    with_tag = ds.noise_tags is not None
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_expected_header(ds.feature_dim, with_tag))
        for i in range(len(ds)):
            row = [str(ds.ids[i])] + [repr(float(v)) for v in ds.X[i]] + [str(int(ds.y[i]))]
            if with_tag:
                row.append("1" if ds.noise_tags[i] else "0")
            writer.writerow(row)


# ---------------------------------------------------------------------------
# splitting / balancing / shifting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SplitSpec:
    train_fraction: float = 0.8
    val_fraction: float = 0.10   # taken out of the training share
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise ConfigError(f"train_fraction must be in (0,1), got {self.train_fraction}")
        if not 0.0 < self.val_fraction < 1.0:
            raise ConfigError(f"val_fraction must be in (0,1), got {self.val_fraction}")


def split(ds: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset, Dataset]:
    """Deterministic shuffle-split into (train, val, test); partitions are
    disjoint, exhaustive and within +-1 of the requested fractions."""
    n = len(ds)
    rng = make_rng(spec.seed)
    perm = rng.permutation(n)
    n_train_total = int(round(spec.train_fraction * n))
    n_val = int(round(spec.val_fraction * n_train_total))
    n_train = n_train_total - n_val
    n_test = n - n_train_total
    if min(n_train, n_val, n_test) < 1:
        raise ConfigError(
            f"split of {n} instances leaves an empty partition "
            f"(train {n_train}, val {n_val}, test {n_test})"
        )
    train_idx = perm[:n_train]
    val_idx = perm[n_train:n_train_total]
    test_idx = perm[n_train_total:]
    return ds.subset(train_idx), ds.subset(val_idx), ds.subset(test_idx)


def undersample_balance(ds: Dataset, rng: np.random.Generator) -> Dataset:
    """Undersample the majority class (without replacement) to equal counts.

    The minority class is untouched; surviving instances keep their original
    relative order.  An already balanced dataset comes back unchanged.
    """
    n0, n1 = ds.class_counts()
    if n0 == 0 or n1 == 0:
        raise ConfigError("both classes must be present to balance")
    if n0 == n1:
        return ds.subset(np.arange(len(ds)))
    minority = 1 if n1 < n0 else 0
    m = min(n0, n1)
    majority_idx = np.flatnonzero(ds.y != minority)
    keep_majority = rng.choice(majority_idx, size=m, replace=False)
    keep = np.sort(np.concatenate([np.flatnonzero(ds.y == minority), keep_majority]))
    return ds.subset(keep)


def inject_shift(ds: Dataset, intensity: float, rng: np.random.Generator) -> Dataset:
    """Degrade quality by adding independent N(0, intensity^2) noise to every
    feature coordinate; labels, ids and order are untouched."""
    if intensity < 0.0:
        raise DomainError(f"shift intensity must be >= 0, got {intensity}")
    out = ds.subset(np.arange(len(ds)))
    if intensity == 0.0:
        return out
    out.X += rng.normal(0.0, intensity, size=out.X.shape)
    return out


# ---------------------------------------------------------------------------
# synthetic pools
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SyntheticSpec:
    """Two Gaussian class clusters at +-separation/2 along a random unit
    direction, with an optional tagged subset corrupted by heavy feature
    noise and label flips.

    Corruption models badly curated instances: a tagged instance's features
    are rescattered around the majority-class center with standard deviation
    ``noise_scale * cluster_std`` (it now looks like an ordinary majority
    instance), and its label is flipped with ``label_flip_probability``.
    Tagged instances therefore form a dense pocket of conflicting labels
    inside the majority region: they carry high irreducible (aleatoric)
    uncertainty for a trained model, and training on them actively corrupts
    the decision boundary where clean majority mass is highest.
    """

    n_instances: int = 2000
    feature_dim: int = 20
    separation: float = 2.0
    cluster_std: float = 1.0
    imbalance: float = 4.0            # negatives per positive
    noisy_fraction: float = 0.3
    label_flip_probability: float = 0.5
    noise_scale: float = 3.0          # corrupted-scatter std as a multiple of cluster_std

    def __post_init__(self):
        if self.n_instances < 2:
            raise ConfigError("n_instances must be >= 2")
        if self.feature_dim < 1:
            raise ConfigError("feature_dim must be >= 1")
        scales = (self.separation, self.cluster_std, self.noise_scale, self.imbalance)
        if not all(math.isfinite(v) for v in scales):
            raise ConfigError("separation/cluster_std/noise_scale/imbalance must be finite")
        if self.separation < 0 or self.cluster_std <= 0 or self.noise_scale < 0:
            raise ConfigError("separation/cluster_std/noise_scale out of range")
        if self.imbalance < 1.0:
            raise ConfigError("imbalance is negatives per positive and must be >= 1")
        if not 0.0 <= self.noisy_fraction <= 1.0:
            raise ConfigError(f"noisy_fraction must be in [0,1], got {self.noisy_fraction}")
        if not 0.0 <= self.label_flip_probability <= 1.0:
            raise ConfigError("label_flip_probability must be in [0,1]")


def generate_synthetic(spec: SyntheticSpec, rng: np.random.Generator) -> Dataset:
    n, d = spec.n_instances, spec.feature_dim
    n_pos = max(1, int(round(n / (1.0 + spec.imbalance))))
    direction = rng.standard_normal(d)
    direction /= np.linalg.norm(direction)

    y = np.zeros(n, dtype=np.int64)
    y[:n_pos] = 1
    signs = np.where(y == 1, 1.0, -1.0)
    X = signs[:, None] * (spec.separation / 2.0) * direction[None, :]
    X = X + rng.normal(0.0, spec.cluster_std, size=(n, d))

    perm = rng.permutation(n)
    X, y = X[perm], y[perm]

    tags = np.zeros(n, dtype=bool)
    n_noisy = int(math.floor(spec.noisy_fraction * n))
    if n_noisy > 0:
        noisy_idx = rng.choice(n, size=n_noisy, replace=False)
        tags[noisy_idx] = True
        majority_center = -(spec.separation / 2.0) * direction
        X[noisy_idx] = majority_center + rng.normal(
            0.0, spec.noise_scale * spec.cluster_std, size=(n_noisy, d)
        )
        flips = rng.random(n_noisy) < spec.label_flip_probability
        y[noisy_idx[flips]] = 1 - y[noisy_idx[flips]]

    ids = np.array([f"syn-{i:06d}" for i in range(n)], dtype=object)
    return Dataset(ids=ids, X=X, y=y, noise_tags=tags)


# ---------------------------------------------------------------------------
# key=value config files
# ---------------------------------------------------------------------------


def utf8_lines(fh, error: type[Exception]):
    """The lines of a text file opened as UTF-8; bytes that are not UTF-8
    raise ``error`` naming the file instead of a ``UnicodeDecodeError``."""
    try:
        yield from fh
    except UnicodeDecodeError:
        raise error(f"{fh.name}: not UTF-8 text") from None


def parse_kv_file(path) -> dict[str, str]:
    """Plain-text config: one ``key = value`` per line, '#' comments, blank
    lines ignored.  Later duplicates override earlier ones."""
    out: dict[str, str] = {}
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(utf8_lines(fh, ConfigError), start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}: line {lineno}: expected key = value")
            key, _, value = stripped.partition("=")
            out[key.strip()] = value.strip()
    return out
