"""Tests of the command-line interface."""

import io
import urllib.request
import json

import pytest

from repro.cli import build_parser, main

from tests.reference import reference_engine


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def test_table4_command():
    code, text = run_cli("table4")
    assert code == 0
    assert "Table IV" in text
    assert "57" in text and "203" in text
    assert "No policy case" in text


def test_run_command_greedy():
    code, text = run_cli(
        "run", "--extra-mb", "10", "--images", "12", "--streams", "4", "--seed", "3"
    )
    assert code == 0
    assert "success       : True" in text
    assert "makespan" in text
    assert "policy calls" in text


def test_run_command_no_policy():
    code, text = run_cli("run", "--extra-mb", "0", "--images", "8", "--policy", "none")
    assert code == 0
    assert "policy calls" not in text


def test_run_command_balanced():
    code, text = run_cli(
        "run", "--extra-mb", "10", "--images", "8", "--policy", "balanced"
    )
    assert code == 0
    assert "success       : True" in text


def test_campaign_command():
    code, text = run_cli(
        "campaign", "--transfers", "20", "--mb", "20", "--workers", "4"
    )
    assert code == 0
    assert "transfers    : 20" in text
    assert "throughput" in text


def test_campaign_adaptive_prints_trajectory():
    code, text = run_cli(
        "campaign", "--transfers", "60", "--mb", "200", "--threshold", "200",
        "--adaptive",
    )
    assert code == 0
    assert "adaptive     : final threshold" in text


def test_figure_quick():
    code, text = run_cli("figure", "7", "--replicates", "1", "--quick")
    assert code == 0
    assert "Fig. 7" in text
    assert "no policy" in text


def test_parser_rejects_unknown_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["nope"])


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_serve_command_over_http():
    """Start the server in a thread, hit /policy/status, then stop it."""
    from repro.policy import PolicyConfig, PolicyService
    from repro.policy.rest import PolicyRestServer

    # Exercise the same wiring `repro serve` uses, without blocking forever.
    server = PolicyRestServer(
        PolicyService(PolicyConfig(policy="greedy", max_streams=77))
    ).start()
    try:
        with urllib.request.urlopen(f"{server.url}/policy/status", timeout=5) as r:
            doc = json.loads(r.read())
        assert doc["max_streams"] == 77
    finally:
        server.stop()


def test_public_api_exports_resolve():
    import repro

    for name in repro.__all__:
        assert hasattr(repro, name), name


def test_serving_imports_leave_the_oracle_and_analysis_out():
    """The reference session is for tests and the verifier: importing
    everything that serves, runs or traces must not load it."""
    import os
    import subprocess
    import sys

    probe = (
        "import sys, repro, repro.policy, repro.policy.rest, repro.policy.sharding, "
        "repro.experiments, repro.tenancy, repro.datacatalog, repro.cli\n"
        "print(sorted(m for m in sys.modules if m == 'repro.rules.reference' "
        "or m.startswith('repro.analysis')))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": "src"},
        check=True, capture_output=True, text=True, timeout=60,
    )
    assert done.stdout.strip() == "[]"


def test_run_with_storage_budget_and_output_site():
    code, text = run_cli(
        "run", "--extra-mb", "10", "--images", "8",
        "--max-staging-gb", "0.06", "--output-site", "archive",
    )
    assert code == 0
    assert "success       : True" in text


def test_figure_5_quick():
    code, text = run_cli("figure", "5", "--replicates", "1", "--quick")
    assert code == 0
    assert "Fig. 5" in text
    assert "1000 MB extra" in text


def test_lint_requires_a_target():
    code, text = run_cli("lint")
    assert code == 2
    assert "nothing to lint" in text


def test_lint_rejects_unknown_rule_set():
    code, text = run_cli("lint", "--rules", "bogus")
    assert code == 2
    assert "unknown rule set" in text


def test_lint_single_rule_set_text():
    code, text = run_cli("lint", "--rules", "greedy", "--trials", "5")
    assert code == 0
    assert "rules:greedy" in text
    assert "0 error(s)" in text


def test_lint_all_is_clean_and_json_renders():
    code, text = run_cli("lint", "--all", "--trials", "5", "--images", "6",
                         "--format", "json")
    assert code == 0
    docs = json.loads(text)
    targets = {doc["target"] for doc in docs}
    assert {"rules:greedy", "rules:balanced", "plan:montage-1deg"} <= targets
    assert all(doc["counts"]["error"] == 0 for doc in docs)


def test_lint_plan_only():
    code, text = run_cli("lint", "--plan", "montage", "--images", "5")
    assert code == 0
    assert "plan:montage-1deg" in text


def test_lint_suppression_is_reported():
    code, text = run_cli("lint", "--rules", "fifo", "--trials", "3",
                         "--suppress", "R007")
    assert code == 0
    assert "suppressed" in text and "R007" in text


def test_lint_verify_single_composition():
    code, text = run_cli("lint", "--verify", "--rules", "greedy",
                         "--trials", "3")
    assert code == 0
    assert "verify:greedy" in text
    assert "0 error(s)" in text


def test_lint_verify_selects_a_verifier_only_composition():
    code, text = run_cli("lint", "--verify", "--rules", "greedy_leases")
    assert code == 0
    assert "verify:greedy_leases" in text
    assert "rules:greedy_leases" not in text
    code, text = run_cli("lint", "--rules", "greedy_leases")
    assert code == 2
    assert "unknown rule set(s): greedy_leases" in text
    code, text = run_cli("lint", "--verify", "--rules", "bogus")
    assert code == 2
    assert "unknown rule set(s): bogus" in text


def test_lint_sarif_output():
    code, text = run_cli("lint", "--rules", "fifo", "--trials", "3",
                         "--format", "sarif")
    assert code == 0
    doc = json.loads(text)
    assert doc["version"] == "2.1.0"
    run = doc["runs"][0]
    assert run["tool"]["driver"]["name"] == "repro-lint"
    assert "rules:fifo" in run["properties"]["targets"]


def test_lint_dead_suppression_is_flagged_s001():
    code, text = run_cli("lint", "--rules", "fifo", "--trials", "3",
                         "--suppress", "R042:never matches")
    assert code == 0
    assert "S001" in text and "dead" in text


def test_trace_command_writes_artifacts(tmp_path):
    outdir = tmp_path / "trace-out"
    code, text = run_cli(
        "trace", "examples-montage", "--out", str(outdir),
        "--images", "4", "--extra-mb", "2", "--seed", "3",
    )
    assert code == 0
    assert "success  : True" in text
    assert "rule" in text and "fires" in text  # profile report printed
    doc = json.loads((outdir / "trace.json").read_text())
    assert doc["traceEvents"]
    for event in doc["traceEvents"]:  # the Chrome trace_event schema
        assert event["ph"] in {"M", "X", "i", "C"}, event
        if event["ph"] == "X":
            assert "ts" in event and event["dur"] >= 0, event
    lines = (outdir / "events.jsonl").read_text().splitlines()
    assert lines and all(json.loads(line) for line in lines)
    prom = (outdir / "metrics.prom").read_text()
    assert "# TYPE repro_policy_calls_total counter" in prom
    assert "firings" in (outdir / "rule_profile.txt").read_text()
    assert json.loads((outdir / "provenance.json").read_text())["trace"]["events"] > 0


def test_trace_command_chaos_scenario(tmp_path):
    outdir = tmp_path / "chaos-out"
    code, text = run_cli(
        "trace", "chaos-montage", "--out", str(outdir),
        "--images", "4", "--extra-mb", "2",
    )
    assert code == 0
    lines = (outdir / "events.jsonl").read_text().splitlines()
    names = {json.loads(line)["name"] for line in lines}
    assert "fault.outage.begin" in names


def test_serve_sharded_command_over_http():
    """`repro serve --shards N` wiring: a sharded fleet behind REST."""
    from repro.policy import PolicyConfig, ShardedPolicyService
    from repro.policy.rest import PolicyRestServer

    router = ShardedPolicyService(
        PolicyConfig(policy="greedy", max_streams=77), num_shards=2
    )
    server = PolicyRestServer(router).start()
    try:
        with urllib.request.urlopen(f"{server.url}/policy/status", timeout=5) as r:
            doc = json.loads(r.read())
        assert doc["max_streams"] == 77
        assert doc["shards"] == 2
        assert all(h["healthy"] for h in doc["shard_health"])
    finally:
        server.stop()
        router.close()


def test_serve_parser_accepts_shards():
    args = build_parser().parse_args(
        ["serve", "--shards", "4", "--journal-root", "/tmp/j"])
    assert args.shards == 4 and args.journal_root == "/tmp/j"


@pytest.mark.parametrize("argv, message", [
    (["run", "--images", "0"], "repro run: error: argument --images: must be an integer >= 1"),
    (["run", "--threshold", "0"], "repro run: error: argument --threshold: must be an integer"),
    (["run", "--streams", "0"], "repro run: error: argument --streams: must be an integer"),
    (["run", "--extra-mb", "-5"], "repro run: error: argument --extra-mb: must be a finite"),
    (["run", "--extra-mb", "nan"], "repro run: error: argument --extra-mb: must be a finite"),
    (["run", "--images", "many"], "repro run: error: argument --images: must be an integer"),
    (["trace", "--streams", "0"], "repro trace: error: argument --streams"),
    # a negative count used to start a single, unsharded service
    (["serve", "--shards", "-1"], "repro serve: error: argument --shards: must be an integer >= 0"),
    (["explain", "1", "--shards", "-2"], "repro explain: error: argument --shards"),
])
def test_out_of_range_flags_are_usage_errors(argv, message, capsys):
    # Parsed only: when these were plain ints, --shards -1 served forever
    # and the others ran into a traceback.
    with pytest.raises(SystemExit) as exit_:
        build_parser().parse_args(argv)
    assert exit_.value.code == 2
    assert message in capsys.readouterr().err


def _serve(*argv: str):
    """A ``repro serve`` subprocess and the URL it listens on."""
    import os
    import subprocess
    import sys

    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", *argv],
        env={**os.environ, "PYTHONPATH": "src", "PYTHONUNBUFFERED": "1"},
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    return server, "http://" + server.stdout.readline().rsplit("http://", 1)[1].strip()


def _seeded_calls(seed: int = 7, n: int = 12) -> list:
    """Submits over a small file pool (so dedup and waits happen), each
    followed by a report on some of the grants the calls so far got."""
    import random

    rng = random.Random(seed)
    calls = []
    for i in range(n):
        lfns = rng.sample(range(6), 2)
        transfers = [
            {"lfn": f"f{k}", "src_url": f"gsiftp://src{k % 2}/f{k}",
             "dst_url": f"gsiftp://dst/f{k}", "nbytes": 1e6 * (k + 1)}
            for k in lfns
        ]
        calls.append(("submit", f"wf{i % 3}", f"job{i}", transfers, rng.random()))
    return calls


def _drive(client, calls, granted: list) -> list:
    """Advice dicts of ``calls``; ``granted`` carries the open grants."""
    out = []
    for _, workflow, job, transfers, report in calls:
        advice = client.submit_transfers(workflow, job, transfers)
        out.append([a.to_dict() for a in advice])
        granted.extend(a.tid for a in advice if a.action == "transfer")
        if report < 0.6 and granted:
            done = granted[: 1 + int(report * 3)]
            del granted[: len(done)]
            client.complete_transfers(done=done)
    return out


def _digests(client, advice) -> list:
    tids = sorted({a["tid"] for batch in advice for a in batch})
    records = [client.explain(tid) for tid in tids]
    return [r["digest"] for r in records if r is not None and not r.get("policy_free")]


def test_serve_resumes_a_single_service_from_its_journal_after_sigkill(tmp_path):
    """``repro serve --journal-root D`` journals the single service; a
    SIGKILLed server restarted on ``D`` answers the rest of a seeded call
    sequence with the advice and decision digests of an uninterrupted one."""
    from repro.policy.client import HTTPPolicyClient

    calls = _seeded_calls()
    runs = {}
    for name, kill_at in (("uninterrupted", None), ("killed", len(calls) // 2)):
        root = tmp_path / name
        granted: list = []
        server, url = _serve("--journal-root", str(root))
        try:
            with HTTPPolicyClient(url) as client:
                advice = _drive(client, calls[:kill_at], granted)
            if kill_at is not None:
                server.kill()
                server.wait()
                server, url = _serve("--journal-root", str(root))
                with HTTPPolicyClient(url) as client:
                    advice += _drive(client, calls[kill_at:], granted)
            with HTTPPolicyClient(url) as client:
                runs[name] = advice, _digests(client, advice)
        finally:
            server.kill()
            server.wait()
    assert runs["killed"][0] == runs["uninterrupted"][0]
    assert runs["killed"][1] == runs["uninterrupted"][1]
    assert len(runs["uninterrupted"][1]) > len(calls)


def test_serve_refuses_a_journal_written_under_another_policy(tmp_path, capsys):
    """A configuration-fingerprint mismatch is one line and exit 2."""
    from repro.policy import PolicyConfig, PolicyJournal, PolicyService

    PolicyService(PolicyConfig(policy="fifo"), journal=PolicyJournal(tmp_path)).close()
    code, text = run_cli("serve", "--port", "0", "--journal-root", str(tmp_path))
    assert code == 2 and text == ""
    (line,) = capsys.readouterr().err.splitlines()
    assert "cannot resume" in line and "different configuration" in line


def test_serve_refuses_to_restart_a_fleet_on_a_used_journal_root(tmp_path, capsys):
    """The router's ids and ownership directory are not durable, so a
    second start on the same root is refused in one line — not a
    ``JournalError`` traceback — and leaves the journals as they were."""
    from repro.policy import PolicyConfig, ShardedPolicyService

    ShardedPolicyService(
        PolicyConfig(policy="greedy"), num_shards=2, journal_root=tmp_path
    ).close()
    before = sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*"))
    code, text = run_cli(
        "serve", "--port", "0", "--shards", "2", "--journal-root", str(tmp_path)
    )
    assert code == 2 and text == ""
    (line,) = capsys.readouterr().err.splitlines()
    assert "cannot be restarted" in line and str(tmp_path) in line
    assert sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*")) == before


def test_serve_subprocess_exits_cleanly_on_sigterm():
    """SIGTERM (systemd, `docker stop`) takes the Ctrl-C route: drain,
    close the shards, exit 0 — promptly when idle."""
    import os
    import signal
    import subprocess
    import sys
    import time

    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", "--shards", "2"],
        env={**os.environ, "PYTHONPATH": "src", "PYTHONUNBUFFERED": "1"},
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        url = "http://" + server.stdout.readline().rsplit("http://", 1)[1].strip()
        with urllib.request.urlopen(f"{url}/policy/status", timeout=5) as r:
            assert json.loads(r.read())["shards"] == 2
        t0 = time.monotonic()
        server.send_signal(signal.SIGTERM)
        _, err = server.communicate(timeout=10)
        assert server.returncode == 0, err
        assert time.monotonic() - t0 < 2.0
    finally:
        server.kill()
        server.wait()


def test_trace_deterministic_across_processes(tmp_path):
    """Byte-identical JSONL even across hash-randomized interpreters.

    An in-process comparison (``tests/experiments/test_tracing.py``)
    cannot catch ordering that leaks from set/dict iteration (PYTHONHASHSEED), so run the CLI in
    two subprocesses with different hash seeds and compare bytes.
    """
    import os
    import subprocess
    import sys

    env = {**os.environ, "PYTHONPATH": "src"}
    for tag, hashseed in (("a", "1"), ("b", "31337")):
        subprocess.run(
            [sys.executable, "-m", "repro", "trace", "examples-montage",
             "--images", "4", "--extra-mb", "2",
             "--out", str(tmp_path / tag)],
            env={**env, "PYTHONHASHSEED": hashseed},
            check=True, capture_output=True, timeout=300,
        )
    assert (tmp_path / "a" / "events.jsonl").read_bytes() == \
        (tmp_path / "b" / "events.jsonl").read_bytes()


def test_trace_chaos_rejects_policy_none(tmp_path):
    code, text = run_cli("trace", "chaos-montage", "--policy", "none",
                         "--out", str(tmp_path))
    assert code == 2
    assert "needs a policy" in text


def test_ensemble_command_demo():
    code, text = run_cli("ensemble", "--seed", "5")
    assert code == 0
    assert "scheduler      : fair (max 2 concurrent)" in text
    assert "success        : True" in text
    # gold carries priority_class=1 in the demo: it runs first.
    assert "in order gold-wf0-extra10MB, gold-wf1-extra10MB" in text
    for tenant in ("bronze", "silver", "gold"):
        assert tenant in text
    assert "fair share 57%" in text  # gold: 4/7


def test_ensemble_command_custom_config(tmp_path):
    config = tmp_path / "ensemble.json"
    config.write_text(json.dumps({
        "tenants": [
            {"tenant": "acme", "weight": 2},
            {"tenant": "capped", "weight": 1, "max_bytes": 1.0},
        ],
        "submissions": [
            {"tenant": "acme", "count": 1, "images": 4, "extra_mb": 2},
            {"tenant": "capped", "count": 1, "images": 4, "extra_mb": 2},
        ],
        "scheduler": "fair",
        "max_concurrent": 2,
    }))
    code, text = run_cli("ensemble", "--config", str(config))
    assert code == 0  # the rejection is reported, the rest still succeeds
    assert "rejected       : capped-wf0-extra2MB (capped)" in text
    assert "byte quota exhausted" in text
    assert "success        : True" in text


def test_ensemble_command_scheduler_override():
    code, text = run_cli("ensemble", "--scheduler", "fifo",
                         "--max-concurrent", "1")
    assert code == 0
    assert "scheduler      : fifo (max 1 concurrent)" in text
    # FIFO ignores priority classes: submission order wins.
    assert "in order bronze-wf0-extra10MB" in text


def test_trace_tenant_ensemble_artifacts(tmp_path):
    code, text = run_cli("trace", "tenant-ensemble", "--out", str(tmp_path))
    assert code == 0
    assert "success  : True" in text
    assert "tenant events" in text
    for artifact in ("trace.json", "events.jsonl", "metrics.prom",
                     "provenance.json"):
        assert (tmp_path / artifact).exists()
    provenance = json.loads((tmp_path / "provenance.json").read_text())
    assert provenance["kind"] == "tenant-ensemble"
    assert provenance["admission_order"][0] == "gold-wf0-extra10MB"
    names = {
        json.loads(line)["name"]
        for line in (tmp_path / "events.jsonl").read_text().splitlines()
    }
    assert {"tenant.submit", "tenant.admit", "tenant.run"} <= names


def test_ensemble_trace_deterministic_across_processes(tmp_path):
    """The tenant-ensemble trace must stay byte-identical across
    hash-randomized interpreters: admission decisions route through
    dicts (ledgers, registries), so this is the regression net for
    iteration-order leaks in the tenancy layer."""
    import os
    import subprocess
    import sys

    env = {**os.environ, "PYTHONPATH": "src"}
    for tag, hashseed in (("a", "1"), ("b", "31337")):
        subprocess.run(
            [sys.executable, "-m", "repro", "trace", "tenant-ensemble",
             "--out", str(tmp_path / tag)],
            env={**env, "PYTHONHASHSEED": hashseed},
            check=True, capture_output=True, timeout=300,
        )
    assert (tmp_path / "a" / "events.jsonl").read_bytes() == \
        (tmp_path / "b" / "events.jsonl").read_bytes()


def test_explain_command_text():
    code, text = run_cli("explain", "2", "--images", "6")
    assert code == 0
    assert "transfer 2:" in text
    assert "causal chain" in text
    assert "digest" in text


def test_explain_command_json_digest_invariant_across_engines_and_shards():
    def digest(*extra):
        code, text = run_cli("explain", "3", "--images", "6",
                             "--format", "json", *extra)
        assert code == 0
        record = json.loads(text)
        assert record["tid"] == 3
        return record["digest"]

    with reference_engine():
        digests = {digest(), digest("--shards", "2")}
    digests |= {digest(), digest("--shards", "2")}
    assert len(digests) == 1, "explain digests diverged across engines/shards"


def test_explain_command_unknown_tid():
    code, text = run_cli("explain", "424242", "--images", "6")
    assert code == 1
    assert "no decision record" in text
