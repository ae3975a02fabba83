from pathlib import Path

import numpy as np
import pytest

from duallearn.core import Dataset
from duallearn.data import CsvSchema, group_split, load_csv, save_csv
from duallearn.errors import InputError

FIXTURES = Path(__file__).resolve().parent / "fixtures"

FAIR_SCHEMA = CsvSchema(label_column="label",
                        feature_columns=("x1", "x2", "ga", "gb", "gc", "gd"),
                        group_column="group")


def awkward_dataset(label_kind):
    """Values whose shortest decimal text is long: a lossy writer changes them."""
    rng = np.random.default_rng(5)
    X = np.concatenate([rng.normal(0.0, 1.0, (40, 3)) * 10.0 ** rng.integers(-300, 300, (40, 1)),
                        [[0.1, -0.0, 5e-324], [np.nextafter(1.0, 2.0), 1 / 3, -2.0 ** 60]]])
    y = (rng.integers(-3, 4, 42) if label_kind == "class"
         else rng.normal(0.0, 1.0, 42) / 7.0)
    return Dataset(features=X, labels=y, name="awkward")


@pytest.mark.parametrize("label_kind", ["class", "real"])
def test_save_load_round_trip_is_bit_exact(tmp_path, label_kind):
    ds = awkward_dataset(label_kind)
    groups = tuple("ab"[i % 2] for i in range(len(ds)))
    path = tmp_path / "awkward.csv"
    save_csv(ds, path, group_labels=groups)
    schema = CsvSchema(label_column="label", feature_columns=("x0", "x1", "x2"),
                       group_column="group", label_kind=label_kind)
    back, back_groups = load_csv(path, schema)
    assert back.features.view(np.uint64).tolist() == ds.features.view(np.uint64).tolist()
    assert back.labels.dtype == ds.labels.dtype
    assert np.array_equal(back.labels, ds.labels)
    if label_kind == "real":
        assert back.labels.view(np.uint64).tolist() == ds.labels.view(np.uint64).tolist()
    assert back_groups == groups


def test_group_split_partitions_and_keeps_order():
    ds, groups = load_csv(FIXTURES / "fair_groups.csv", FAIR_SCHEMA)
    parts = group_split(ds, groups)
    assert list(parts) == list(dict.fromkeys(groups))  # first-appearance order
    seen = np.concatenate([parts[g].rows for g in parts])
    assert np.array_equal(np.sort(seen), np.arange(len(ds)))  # disjoint and covering
    for g, part in parts.items():
        want = [i for i, h in enumerate(groups) if h == g]
        assert part.rows.tolist() == want  # within-group file order
        assert part.name == f"{ds.name}[{g}]"


def test_group_views_record_the_rows_they_select():
    ds, groups = load_csv(FIXTURES / "fair_groups.csv", FAIR_SCHEMA)
    for part in group_split(ds, groups).values():
        assert part.root is ds
        assert np.array_equal(part.features, ds.features[part.rows])
        assert np.array_equal(part.labels, ds.labels[part.rows])


@pytest.mark.parametrize("where", ["header", "row"])
def test_a_file_that_is_not_utf8_is_an_input_error_naming_the_byte_offset(tmp_path, where):
    good = (FIXTURES / "fair_groups.csv").read_bytes()
    lines = good.split(b"\n")
    line = 0 if where == "header" else 3
    lines[line] = lines[line][:2] + b"\xff" + lines[line][2:]
    bad = b"\n".join(lines)
    offset = sum(len(x) + 1 for x in lines[:line]) + 2
    path = tmp_path / "latin.csv"
    path.write_bytes(bad)
    with pytest.raises(InputError) as err:
        load_csv(path, FAIR_SCHEMA)
    assert str(err.value).startswith(f"{path}: not UTF-8 text: byte 0xff at byte offset {offset} ")
