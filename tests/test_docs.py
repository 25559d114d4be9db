import os
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
