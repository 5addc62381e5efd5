"""Quick-mode benchmarks never overwrite the committed paper results.

``benchmarks/results/`` holds the full-mode numbers that EXPERIMENTS.md
quotes and CI's ``paper`` job regenerates byte for byte.  A smoke run
(``REPRO_QUICK=1``) archives elsewhere.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RESULTS = ROOT / "benchmarks" / "results"

QUICK_ARCHIVE = '''
def test_one_quick_archive(archive):
    archive("table4_analytic", {"quick": True}, "a quick-mode report")
'''


def test_a_quick_archive_leaves_the_committed_results_alone(tmp_path):
    before = {path: path.read_bytes() for path in RESULTS.iterdir()}
    (tmp_path / "test_quick_archive.py").write_text(QUICK_ARCHIVE)
    env = {**os.environ, "REPRO_QUICK": "1",
           "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT)])}
    try:
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             "-p", "benchmarks.conftest", "--rootdir", str(tmp_path),
             str(tmp_path / "test_quick_archive.py")],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        assert run.returncode == 0, run.stdout + run.stderr
        after = {path: path.read_bytes() for path in RESULTS.iterdir()}
        assert after.keys() == before.keys()
        changed = sorted(path.name for path in before if after[path] != before[path])
        assert changed == []
    finally:
        for path in set(RESULTS.iterdir()) - before.keys():
            path.unlink()
        for path, data in before.items():
            if path.read_bytes() != data:
                path.write_bytes(data)
