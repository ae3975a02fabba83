"""Regenerate fair_groups.csv, the group-rate fixture used by the tests and CLI.

Four groups of different sizes and base rates, two informative continuous
features, and one-hot group indicators so a logistic model can shift its
per-group intercepts. Deterministic; rerunning overwrites the CSV with
identical bytes:

    PYTHONPATH=src:tests python3 tests/fixtures/make_fair_fixture.py
"""

from pathlib import Path

import numpy as np

from duallearn.core import Dataset

from helpers import save_csv

FIXTURE = Path(__file__).parent / "fair_groups.csv"

SIZES = {"A": 600, "B": 280, "C": 180, "D": 140}
OFFSETS = {"A": 0.5, "B": -0.4, "C": 0.1, "D": -0.8}
SEED = 42


def build() -> tuple[Dataset, tuple[str, ...]]:
    rng = np.random.default_rng(SEED)
    feats, labels, groups = [], [], []
    for g, n in SIZES.items():
        x = rng.standard_normal((n, 2))
        logit = 1.2 * x[:, 0] - 0.8 * x[:, 1] + OFFSETS[g]
        y = (rng.random(n) < 1.0 / (1.0 + np.exp(-logit))).astype(int)
        onehot = np.zeros((n, 4))
        onehot[:, "ABCD".index(g)] = 1.0
        feats.append(np.hstack([x, onehot]))
        labels.append(y)
        groups += [g] * n
    ds = Dataset(features=np.vstack(feats), labels=np.concatenate(labels),
                 name="fair_groups")
    return ds, tuple(groups)


def write(path: Path) -> int:
    """Write the fixture to `path`; returns its row count."""
    ds, groups = build()
    save_csv(ds, path, group_labels=groups,
             feature_columns=("x1", "x2", "ga", "gb", "gc", "gd"))
    return len(ds)


if __name__ == "__main__":
    print(f"wrote {FIXTURE} ({write(FIXTURE)} rows)")
