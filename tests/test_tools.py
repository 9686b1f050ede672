"""The repository's own tools."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parent.parent


def test_code_lines_total_is_the_sum_of_its_modules():
    text = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "code_lines.py")],
        capture_output=True, text=True, check=True,
    ).stdout
    *modules, total = [line.split() for line in text.splitlines()]
    assert [name for name, _ in modules] == sorted(
        p.name for p in (ROOT / "src" / "evcsmarket").glob("*.py")
    )
    assert all(int(count) > 0 for _, count in modules)
    assert total[0] == "total" and int(total[1]) == sum(int(count) for _, count in modules)
