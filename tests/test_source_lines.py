"""The package's source and its tests keep every line within 120 characters."""

from pathlib import Path

import sgrel

LIMIT = 120
FILES = [*sorted(Path(sgrel.__file__).parent.glob("*.py")), *sorted(Path(__file__).parent.glob("*.py"))]


def test_no_source_line_is_longer_than_the_limit():
    long = [
        f"{path.parent.name}/{path.name}:{number}: {len(line)} characters"
        for path in FILES
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
        if len(line) > LIMIT
    ]
    assert long == []
