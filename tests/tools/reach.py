"""Reach report: the defs under ``src/repro`` that no product surface runs.

Runs every product surface (the examples, the ``repro`` commands, a live
REST server answering every route, the chaos runner under each fault
kind, the bench workloads and the paper's benchmarks in quick mode)
under a profiler and lists each ``def`` under ``src/repro`` that none of
them entered.  Every such def must be listed in ``reach_allow.txt`` as

* ``route``   — an operation of the product no surface drives, or
* ``failure`` — a failure path, reached by the named fault or test, or
* ``oracle``  — a check that tests hold the product to,

each with the test or fault that does reach it.  Anything else is dead
code: delete it with its tests.  Run from the repository root::

    PYTHONPATH=src python -m tests.tools.reach

Exits 1 when an unreached def is not listed, or when a listed entry is
stale (it is reached now, or no such def exists), the way S001 flags a
dead suppression.  Takes a few minutes.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import cProfile
import io
import os
import sys
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"
ALLOW = Path(__file__).with_name("reach_allow.txt")
CLASSES = ("route", "failure", "oracle")

# ------------------------------------------------------------------ profiling
#: one C-level profiler per thread; their entries are the code entered
_profilers: list[cProfile.Profile] = []
#: the frame a thread's first profile event arrives in (entered before
#: that thread's profiler was on)
_first_frames: set = set()


def _thread_hook(frame, event, arg):
    _first_frames.add(frame.f_code)
    profiler = cProfile.Profile()
    _profilers.append(profiler)
    profiler.enable()


def start_profiling() -> cProfile.Profile:
    """Profile this thread and every thread started from now on.

    Call it before ``import repro``: module-level factories and class
    bodies run at import time.
    """
    threading.setprofile(_thread_hook)
    profiler = cProfile.Profile()
    _profilers.append(profiler)
    profiler.enable()
    return profiler


def entered(main: cProfile.Profile) -> set[tuple[str, int]]:
    """``(file, first line)`` of every code object any thread entered."""
    main.disable()
    threading.setprofile(None)  # type: ignore[arg-type]
    codes = set(_first_frames)
    for profiler in _profilers:
        codes.update(entry.code for entry in profiler.getstats())
    return {
        (str(Path(code.co_filename).resolve()), code.co_firstlineno)
        for code in codes
        if not isinstance(code, str)
    }


# ------------------------------------------------------------------ surfaces
def _examples() -> None:
    import runpy

    for path in sorted((ROOT / "examples").glob("*.py")):
        argv, sys.argv = sys.argv, [str(path), "--quick"]
        try:
            runpy.run_path(str(path), run_name="__main__")
        finally:
            sys.argv = argv


def _cli(out: Path) -> None:
    from repro.cli import main

    commands = [
        ["table4"],
        ["run", "--images", "6", "--extra-mb", "5"],
        ["figure", "7", "--quick", "--replicates", "1"],
        ["campaign", "--transfers", "40"],
        *(["ensemble", "--scheduler", scheduler] for scheduler in ("fair", "priority", "fifo")),
        ["run", "--policy", "balanced", "--images", "6", "--extra-mb", "5",
         "--streams", "8", "--threshold", "10"],
        *(["lint", "--all", "--verify", "--plan", "montage", "--format", fmt]
          for fmt in ("text", "json", "sarif")),
        *(["trace", scenario, "--images", "6", "--extra-mb", "5", "--out",
           str(out / scenario)]
          for scenario in ("examples-montage", "chaos-montage", "tenant-ensemble")),
        *(["explain", "3", "--shards", shards, "--format", fmt]
          for shards in ("0", "2") for fmt in ("text", "json")),
    ]
    for argv in commands:
        main(argv, out=io.StringIO())


def _routes() -> None:
    """One request per route, over HTTP, to one service and to a fleet."""
    from repro.policy import PolicyRestServer
    from repro.policy.client import HTTPPolicyClient
    from repro.policy.controller import ROUTES

    from tests.policy.test_route_conformance import minimal_args, warmed

    for sharded in (False, True):
        for route in ROUTES:
            service = warmed(sharded)
            with PolicyRestServer(service) as server, \
                    HTTPPolicyClient(server.url) as client:
                getattr(client, route.op)(*minimal_args(route))
            service.close()


def _serve(out: Path) -> None:
    """``repro serve`` in this process: a journaled service, started,
    stopped and resumed, and a 2-shard fleet; each answers a call."""
    import signal

    from repro.cli import main
    from repro.policy.client import HTTPPolicyClient

    class Console(io.StringIO):
        def write(self, text):
            if "listening on " in text:
                url = text.split("listening on ")[1].split()[0]
                threading.Thread(target=drive, args=(url,)).start()
            return super().write(text)

    def drive(url: str) -> None:
        with HTTPPolicyClient(url) as client:
            client.submit_transfers("w", "j", [
                {"lfn": "f", "src_url": "gsiftp://a/f", "dst_url": "gsiftp://b/f",
                 "nbytes": 1.0},
            ])
        # serve stops on it like on Ctrl-C
        signal.pthread_kill(threading.main_thread().ident, signal.SIGTERM)

    # as serve itself does, before its banner starts the calling thread
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    root = out / "journal"
    for argv in (["--journal-root", str(root)], ["--journal-root", str(root)],
                 ["--shards", "2"]):
        main(["serve", "--port", "0", *argv], out=Console())


def _faults(out: Path) -> None:
    from repro.des.faults import FaultPlan, GridFTPStorm, RpcDropWindow
    from repro.experiments.chaos import run_chaos_montage

    from tests.integration import fleet_faults
    from tests.integration.test_chaos import chaos_config

    plans = {
        "journaled-outage": (FaultPlan.single_crash(at=60.0, duration=120.0),
                             {"journal_root": out / "outage"}),
        "rpc-drop": (FaultPlan(rpc_drops=(RpcDropWindow(at=30.0, duration=60.0),)), {}),
        "storm": (FaultPlan(storms=(GridFTPStorm(at=20.0, duration=60.0,
                                                 failure_rate=0.3),)), {}),
        "leases": (FaultPlan(), {"lease_seconds": 30.0}),
    }
    for plan, overrides in plans.values():
        run_chaos_montage(chaos_config(**overrides), plan)
    fleet_faults.main(["--seeds", "2"])


def _bench() -> None:
    from bench.harness import run_workload
    from bench.workloads import WORKLOADS

    for name in WORKLOADS:
        for traced in (False, True):
            run_workload(name, seed=1, quick=True, traced=traced)


def _benchmarks() -> None:
    import pytest

    os.environ["REPRO_QUICK"] = "1"
    # pytest-benchmark turns the profiler off while it times a call
    code = pytest.main([str(ROOT / "benchmarks"), "-q", "-p", "no:cacheprovider",
                        "--benchmark-disable"])
    if code != 0:
        raise SystemExit(f"benchmarks failed under the reach profiler ({code})")


def run_surfaces() -> set[tuple[str, int]]:
    """Run every product surface under the profiler; return what ran."""
    profiler = start_profiling()
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(io.StringIO()):
        out = Path(tmp)
        _examples()
        _cli(out)
        _routes()
        _serve(out)
        _faults(out)
        _bench()
        _benchmarks()
    return entered(profiler)


# ------------------------------------------------------------------ defs
@dataclass(frozen=True)
class Def:
    path: str  # relative to src/repro
    qualname: str
    line: int  # the first decorator's line, else the ``def`` line
    end: int

    @property
    def name(self) -> str:
        return f"{self.path}:{self.qualname}"


def _is_type_checking(node: ast.If) -> bool:
    test = node.test
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


def defs_of(path: Path) -> list[Def]:
    rel = path.relative_to(SRC).as_posix()
    found: list[Def] = []

    def walk(nodes, prefix: str) -> None:
        for node in nodes:
            if isinstance(node, ast.If) and _is_type_checking(node):
                walk(node.orelse, prefix)
                continue
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = min([node.lineno] + [d.lineno for d in node.decorator_list])
                found.append(Def(rel, prefix + node.name, line, node.end_lineno or line))
                walk(node.body, f"{prefix}{node.name}.")
            elif isinstance(node, ast.ClassDef):
                walk(node.body, f"{prefix}{node.name}.")
            else:
                for field in ("body", "orelse", "finalbody", "handlers"):
                    walk(getattr(node, field, []), prefix)

    walk(ast.parse(path.read_text()).body, "")
    return found


def all_defs() -> list[Def]:
    return [d for path in sorted(SRC.rglob("*.py")) for d in defs_of(path)]


def unreached(reached: set[tuple[str, int]]) -> list[Def]:
    return [
        d for d in all_defs()
        if (str((SRC / d.path).resolve()), d.line) not in reached
    ]


# ------------------------------------------------------------------ allowlist
def load_allowlist(path: Path = ALLOW) -> dict[str, tuple[str, str]]:
    """``{path:qualname: (class, reached by)}``; ``#`` starts a comment."""
    allowed: dict[str, tuple[str, str]] = {}
    for number, raw in enumerate(path.read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        name, kind, *by = line.split(maxsplit=2)
        if kind not in CLASSES or not by:
            raise SystemExit(f"{path.name}:{number}: want 'NAME {'|'.join(CLASSES)} REACHED-BY'")
        allowed[name] = (kind, by[0])
    return allowed


def check(dead: list[Def], allowed: dict[str, tuple[str, str]]) -> tuple[list[Def], list[str]]:
    """(unreached defs not listed, listed names that are stale)."""
    existing = {d.name for d in all_defs()}
    dead_names = {d.name for d in dead}
    unlisted = [d for d in dead if d.name not in allowed]
    stale = [
        f"{name} ({'reached' if name in existing else 'no such def'})"
        for name in allowed
        if name not in dead_names
    ]
    return unlisted, stale


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.parse_args(argv)
    dead = unreached(run_surfaces())
    allowed = load_allowlist()
    unlisted, stale = check(dead, allowed)
    total = len(all_defs())
    lines = sum(d.end - d.line + 1 for d in dead)
    print(f"{len(dead)} of {total} defs under src/repro unreached ({lines} def-lines)")
    for kind in CLASSES:
        print(f"  {kind:<8s} {sum(1 for k, _ in allowed.values() if k == kind)} allowlisted")
    for d in unlisted:
        print(f"unlisted: {d.name} (line {d.line}, {d.end - d.line + 1} lines)")
    for entry in stale:
        print(f"stale: {entry}")
    return 1 if unlisted or stale else 0


if __name__ == "__main__":
    sys.exit(main())
