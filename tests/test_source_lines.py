"""The package's source keeps every line within 120 characters."""

from pathlib import Path

import sgrel

LIMIT = 120


def test_no_source_line_is_longer_than_the_limit():
    long = [
        f"{path.name}:{number}: {len(line)} characters"
        for path in sorted(Path(sgrel.__file__).parent.glob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
        if len(line) > LIMIT
    ]
    assert long == []
