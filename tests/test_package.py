"""The package namespace and the README's library example, each run in a
fresh interpreter so no module the test session already imported hides what
they load or need.
"""
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_fresh(code: str, cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def test_import_hybridpar_loads_no_submodule_and_no_numpy(tmp_path):
    proc = run_fresh("import sys, hybridpar\n"
                     "print(sorted(m for m in sys.modules if m.startswith('hybridpar.')\n"
                     "             or m.split('.')[0] == 'numpy'))", tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_readme_library_example_runs(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    library = readme[readme.index("\n## Library\n"):]
    block = re.search(r"```python\n(.*?)```", library, re.DOTALL).group(1)
    proc = run_fresh(block, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
