"""What each entry point imports.

The runtime depends on the standard library alone: numpy and networkx
are test oracles only, and a simulation's random streams are numpy's
generator written out in Python (``repro.des.rng``).  And each process
loads only the layer it runs: ``repro serve`` never imports
the simulator, and a simulation never imports the REST server, the shard
router, the analyzers or the figure, campaign and tracing harnesses.
Each check runs in a fresh interpreter, since the test process has
long since imported everything.
"""

import json
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

#: the simulated testbed: what the Policy Service must not load
SIMULATOR = (
    "numpy", "repro.des", "repro.net.flows", "repro.net.gridftp", "repro.engine",
    "repro.planner", "repro.experiments",
)
#: the service frontends and the offline tools: what a simulation must not load
SERVER = (
    "asyncio", "repro.policy.rest", "repro.policy.sharding", "repro.experiments.campaign",
    "repro.experiments.figures", "repro.experiments.tracing", "repro.analysis",
)
#: numpy, and the HTTP transport with what it pulls in: what a simulation must not load
HEAVY = ("numpy", "http.client", "ssl", "email")
#: a 6-image paper cell and a small policy-off workflow
SIMULATIONS = (
    "from repro.experiments import ExperimentConfig, run_cell\n"
    "from repro.experiments.runner import cell_workflow, run_workflow\n"
    "from repro.policy.client import HTTPPolicyClient\n"
    "cell = run_cell(ExperimentConfig(n_images=6, extra_file_mb=1))\n"
    "assert cell.success\n"
    "cfg = ExperimentConfig(policy=None, n_images=3, extra_file_mb=1)\n"
    "assert run_workflow(cfg, cell_workflow(cfg)).success\n"
)
LAZY_PACKAGES = (
    "repro", "repro.policy", "repro.experiments", "repro.des", "repro.net", "repro.obs",
)


def loaded(code: str) -> list[str]:
    """Every module a fresh interpreter holds after running ``code``."""
    script = (
        f"import sys; sys.path.insert(0, {SRC!r})\n{code}\n"
        "import json; print(json.dumps(sorted(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def within(modules: list[str], layers) -> list[str]:
    """The ``modules`` that are one of ``layers`` or inside one."""
    return [m for m in modules if any(m == lay or m.startswith(lay + ".") for lay in layers)]


def test_runtime_imports_leave_networkx_out():
    modules = loaded("import repro, repro.cli, repro.analysis.rulelint, repro.analysis.planlint")
    assert "networkx" not in modules


def test_import_repro_loads_no_layer():
    assert within(loaded("import repro"), ("repro", "numpy")) == ["repro", "repro._lazy"]


def test_serve_never_imports_the_simulator():
    # The real command, in a thread: it prints its URL once the server
    # listens, and then blocks until the process ends.
    code = (
        "import io, threading, time\n"
        "from repro.cli import main\n"
        "out = io.StringIO()\n"
        "threading.Thread(target=main, args=(['serve', '--port', '0'], out),"
        " daemon=True).start()\n"
        "while 'listening' not in out.getvalue(): time.sleep(0.01)"
    )
    modules = loaded(code)
    assert "repro.policy.rest" in modules
    assert within(modules, SIMULATOR) == []
    assert within(modules, ("repro.policy.sharding",)) == []


@pytest.mark.parametrize("code", [
    # policy off: the engine stages every file itself
    "from repro import ExperimentConfig, run_workflow\n"
    "from repro.experiments.runner import cell_workflow\n"
    "cfg = ExperimentConfig(policy=None, n_images=3, extra_file_mb=1)\n"
    "assert run_workflow(cfg, cell_workflow(cfg)).success",
    # a paper cell against one in-process service
    "from repro.experiments import ExperimentConfig, run_cell\n"
    "assert run_cell(ExperimentConfig(n_images=3, extra_file_mb=1)).success",
], ids=["policy-off-workflow", "cell"])
def test_an_unsharded_simulation_never_imports_the_server(code):
    modules = loaded(code)
    assert "repro.engine.dagman" in modules
    assert within(modules, SERVER) == []


def test_a_simulation_loads_neither_numpy_nor_the_http_transport():
    modules = loaded(SIMULATIONS)
    assert "repro.policy.client" in modules
    assert within(modules, HEAVY) == []


def test_every_module_imports_without_numpy_and_a_cell_is_unchanged():
    names = [m.name for m in pkgutil.walk_packages([f"{SRC}/repro"], "repro.")
             if not m.name.endswith("__main__")]
    digest = (
        "import dataclasses, hashlib\n"
        "print(hashlib.sha256(json.dumps(dataclasses.asdict(cell), sort_keys=True)"
        ".encode()).hexdigest())\n"
    )
    runs = {}
    for blocked in (False, True):
        code = (f"sys.modules['numpy'] = None\nimport importlib\n"
                f"for name in {names!r}: importlib.import_module(name)\n" if blocked else "")
        script = f"import json, sys; sys.path.insert(0, {SRC!r})\n{code}{SIMULATIONS}{digest}"
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        runs[blocked] = proc.stdout.split()[-1]
    assert {"repro.des.rng", "repro.net.gridftp", "repro.experiments.figures"} <= set(names)
    assert runs[True] == runs[False]


def test_lazy_exports_resolve_once_and_are_listed():
    code = f"""
import importlib
for name in {LAZY_PACKAGES!r}:
    package = importlib.import_module(name)
    pending = set(dir(package)) - set(vars(package))
    assert pending <= set(package.__all__), (name, pending - set(package.__all__))
    for export in package.__all__:
        assert export in dir(package), (name, export)
        value = getattr(package, export)
        assert vars(package)[export] is value, (name, export)  # cached: no second lookup
    try:
        package.no_such_export
    except AttributeError:
        pass
    else:
        raise AssertionError(name)
"""
    loaded(code)
