"""Dataset ingestion and construction.

CSV loading with an explicit column schema (comma separator, dot decimals,
UTF-8, mandatory header), group-conditional splits for fairness constraints,
and a two-Gaussian synthetic classification task. Loaders are deterministic;
group splits partition the loaded data in place without re-reading anything.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import Dataset
from .errors import InputError


@dataclass(frozen=True)
class CsvSchema:
    """Which columns hold the label, the features, and (optionally) the group.

    label_kind "class" parses labels as integers; "real" keeps them as floats.
    """

    label_column: str
    feature_columns: tuple[str, ...]
    group_column: str | None = None
    label_kind: str = "class"

    def __post_init__(self) -> None:
        object.__setattr__(self, "feature_columns", tuple(self.feature_columns))
        if len(self.feature_columns) == 0:
            raise InputError("schema needs at least one feature column")
        if self.label_kind not in ("class", "real"):
            raise InputError(f"label_kind must be 'class' or 'real', got {self.label_kind!r}")


def load_csv(path: str | Path, schema: CsvSchema) -> tuple[Dataset, tuple[str, ...] | None]:
    """Read a dataset in file row order; returns (dataset, group labels or None)."""
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as err:
        raise InputError(f"{path}: cannot open the dataset: {err.strerror}") from None
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        raise InputError(f"{path}: not UTF-8 text: byte 0x{data[err.start]:02x} at byte "
                         f"offset {err.start} ({err.reason})") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise InputError(f"{path}: empty file, header row required") from None
    col = {name: i for i, name in enumerate(header)}
    for name in (schema.label_column, *schema.feature_columns):
        if name not in col:
            raise InputError(f"{path}: schema error, missing column {name!r}")
    if schema.group_column is not None and schema.group_column not in col:
        raise InputError(f"{path}: schema error, missing column {schema.group_column!r}")

    feats: list[list[float]] = []
    labels: list[float] = []
    groups: list[str] = []
    for rownum, row in enumerate(reader, start=2):
        if len(row) != len(header):
            raise InputError(f"{path}: row {rownum}: expected {len(header)} cells, got {len(row)}")
        try:
            feats.append([float(row[col[c]]) for c in schema.feature_columns])
        except ValueError as err:
            raise InputError(f"{path}: row {rownum}: non-numeric feature cell ({err})") from None
        cell = row[col[schema.label_column]]
        try:
            label = float(cell)
        except ValueError:
            raise InputError(f"{path}: row {rownum}: non-numeric label {cell!r}") from None
        if not math.isfinite(label):
            raise InputError(f"{path}: row {rownum}: non-finite label {cell!r}")
        if schema.label_kind == "class":
            if label != int(label):
                raise InputError(f"{path}: row {rownum}: class label {label} is not an integer")
            label = int(label)
        labels.append(label)
        if schema.group_column is not None:
            groups.append(row[col[schema.group_column]])

    if not feats:
        raise InputError(f"{path}: no data rows")
    X = np.asarray(feats, dtype=float)
    finite = np.isfinite(X)
    if not finite.all():  # row i is file row i + 2, after the header
        i, j = map(int, np.argwhere(~finite)[0])
        raise InputError(f"{path}: row {i + 2}: non-finite feature cell "
                         f"{schema.feature_columns[j]!r} ({X[i, j]})")
    labels_arr = (np.asarray(labels, dtype=np.int64) if schema.label_kind == "class"
                  else np.asarray(labels, dtype=float))
    ds = Dataset(features=X, labels=labels_arr, name=path.stem)
    return ds, (tuple(groups) if schema.group_column is not None else None)


def group_split(dataset: Dataset, group_labels) -> dict[str, Dataset]:
    """Partition by group label, preserving within-group order.

    The parts are conditionals of the input: same values, union equals the
    dataset, groups keyed in first-appearance order.
    """
    labels = list(group_labels)
    if len(labels) != len(dataset):
        raise InputError(
            f"{len(labels)} group labels for {len(dataset)} samples"
        )
    order: list[str] = []
    members: dict[str, list[int]] = {}
    for i, g in enumerate(labels):
        g = str(g)
        if g not in members:
            members[g] = []
            order.append(g)
        members[g].append(i)
    return {
        g: dataset.subset(np.asarray(members[g]), name=f"{dataset.name}[{g}]")
        for g in order
    }


def synth_two_gaussians(dim: int, means, sigma: float, n: int, seed: int) -> Dataset:
    """Binary classification task: two isotropic Gaussian blobs.

    ceil(n/2) samples of class 0 at means[0], floor(n/2) of class 1 at
    means[1], noise scale sigma, deterministic per seed.
    """
    if n < 2:
        raise InputError(f"n must be >= 2, got {n}")
    if sigma <= 0:
        raise InputError(f"sigma must be positive, got {sigma}")
    mu = np.asarray(means, dtype=float)
    if mu.shape != (2, dim):
        raise InputError(f"means must have shape (2, {dim}), got {mu.shape}")
    rng = np.random.default_rng(seed)
    n1 = n // 2
    n0 = n - n1
    X = np.concatenate([
        mu[0] + sigma * rng.standard_normal((n0, dim)),
        mu[1] + sigma * rng.standard_normal((n1, dim)),
    ])
    y = np.concatenate([np.zeros(n0, dtype=np.int64), np.ones(n1, dtype=np.int64)])
    return Dataset(features=X, labels=y, name=f"two-gaussians-N{n}-seed{seed}")
