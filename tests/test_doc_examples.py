"""The documentation's ``python`` examples must run as written:
``tools/run_doc_examples.py`` passes on the repository's own pages and
fails on a page whose example raises."""

import os
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(REPO_ROOT, "tools", "run_doc_examples.py")


def run_tool(*files):
    env = {**os.environ, "PYTHONPATH": os.path.join(REPO_ROOT, "src")}
    return subprocess.run(
        [sys.executable, TOOL, *files],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        env=env,
    )


def test_doc_examples_run():
    proc = run_tool()
    assert proc.returncode == 0, proc.stdout + proc.stderr
    passed = [line.partition(":")[0] for line in proc.stdout.splitlines()
              if line.endswith(" example block(s) ok")]
    assert passed == ["README.md", os.path.join("docs", "ENGINE.md"),
                      os.path.join("docs", "OBSERVABILITY.md")]


def test_runner_flags_a_failing_example(tmp_path):
    doc = tmp_path / "bad.md"
    doc.write_text("```python\nx = 1\n```\n\n```python\nraise ValueError('drifted')\n```\n")
    proc = run_tool(str(doc))
    assert proc.returncode == 1
    assert f"{doc}:6: example failed" in proc.stdout
    assert "ValueError: drifted" in proc.stderr
