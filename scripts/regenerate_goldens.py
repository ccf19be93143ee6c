#!/usr/bin/env python3
"""Regenerate the committed golden tables and usage texts under tests/golden/.

Run from the repository root after a deliberate rendering change; review the
diff before committing.
"""

import contextlib
import io
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

from golden_cases import GOLDEN_CASES, USAGE_CASES, usage_text  # noqa: E402

from riordan.cli import main  # noqa: E402


def run(argv) -> str:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        status = main(argv)
    if status != 0:
        raise SystemExit(f"command failed ({status}): {argv}")
    return buffer.getvalue()


def regenerate() -> None:
    golden_dir = ROOT / "tests" / "golden"
    golden_dir.mkdir(parents=True, exist_ok=True)
    for filename, argv in GOLDEN_CASES.items():
        text = run(argv)
        (golden_dir / filename).write_text(text)
        print(f"wrote {filename} ({len(text.splitlines())} rows)")
    os.environ["COLUMNS"] = "80"  # help texts wrap at the terminal width
    for filename, argv in USAGE_CASES.items():
        (golden_dir / filename).write_text(usage_text(argv))
        print(f"wrote {filename}")


if __name__ == "__main__":
    regenerate()
