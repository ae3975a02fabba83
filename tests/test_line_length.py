"""Every line of the library fits in 100 columns, so no sentence or call
runs off the edge of a review diff."""

from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "duallearn"
MAX_COLUMNS = 100


def test_library_lines_fit_in_100_columns():
    files = sorted(SRC.glob("*.py"))
    assert files
    long = [f"{path.name}:{n} ({len(line)} columns)"
            for path in files
            for n, line in enumerate(path.read_text().splitlines(), start=1)
            if len(line) > MAX_COLUMNS]
    assert long == []
