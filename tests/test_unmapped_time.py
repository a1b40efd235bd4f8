"""Smoke test of ``tools/unmapped_time.py``: one fresh run of the one-exhibit workload."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_one_run_prints_each_exhibit_and_the_coverage():
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "unmapped_time.py"),
         "--workload", "paper-search", "--runs", "1"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout
    rows = {
        match[1]: (float(match[2]), float(match[3]))
        for match in re.finditer(r"^  (\w+) +([\d.]+) +([\d.]+)$", out, flags=re.M)
    }
    assert set(rows) == {"linial", "all"}
    assert rows["linial"] == rows["all"] and rows["all"][0] > 0
    coverage = re.search(r"^coverage: median ([\d.]+), min ([\d.]+), max ([\d.]+)$", out, re.M)
    assert coverage and len(set(coverage.groups())) == 1  # one run
    assert 0 < float(coverage[1]) <= 1
