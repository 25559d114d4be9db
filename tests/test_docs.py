import contextlib
import io
import os
import re
import subprocess
import sys


def test_walkthrough_runs():
    root = os.path.join(os.path.dirname(__file__), "..")
    script = os.path.join(root, "docs", "walkthrough.py")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(root, "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, script], capture_output=True,
                          text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "pipeline output equals the tangency module" in proc.stdout


def test_readme_library_example_prints_its_comments():
    root = os.path.join(os.path.dirname(__file__), "..")
    with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
        block = re.search(r"```python\n(.*?)```", fh.read(), re.S).group(1)
    expected = [line.split("#", 1)[1].strip()
                for line in block.splitlines() if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block, {})
    assert "True (4*x, y)" in expected
    assert out.getvalue().splitlines() == expected
