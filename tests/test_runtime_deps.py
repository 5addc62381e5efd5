"""The runtime depends on numpy alone: networkx is a test oracle only."""

import subprocess
import sys
from pathlib import Path


def test_runtime_imports_leave_networkx_out():
    src = Path(__file__).resolve().parents[1] / "src"
    script = (
        f"import sys; sys.path.insert(0, {str(src)!r}); "
        "import repro, repro.cli, repro.analysis.rulelint, repro.analysis.planlint; "
        "assert 'networkx' not in sys.modules, 'networkx imported'"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
