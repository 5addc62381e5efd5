"""Command-line interface.

Subcommands::

    repro table4                      print Table IV (max simultaneous streams)
    repro run [...]                   run one experiment cell, print metrics
    repro figure {5,6,7,8,9} [...]    regenerate one of the paper's figures
    repro campaign [...]              run a steady staging campaign
    repro serve [...]                 start the RESTful Policy Service
    repro lint [...]                  statically verify rule sets and plans
    repro trace [scenario] [...]      run a traced cell, write trace artifacts
    repro explain <tid> [...]         replay a seeded cell, explain one advice
    repro ensemble [...]              run a multi-tenant workflow ensemble

(`python -m repro ...` works identically.)
"""

from __future__ import annotations

import argparse
import math
import signal
import sys
import threading
from typing import TYPE_CHECKING, Optional, Sequence

if TYPE_CHECKING:
    from repro.policy.sharding import ShardedPolicyService

__all__ = ["main", "build_parser"]


_POLICIES = ("greedy", "balanced", "fifo", "none")


def _minimum(low: int, kind: type = int, strict: bool = False):
    """An argparse ``type``: a finite ``kind`` value >= ``low`` (> ``low``
    when ``strict``), so a bad count or size is a usage error (exit 2)
    rather than a traceback."""
    bound = f"> {low}" if strict else f">= {low}"
    what = f"a finite number {bound}" if kind is float else f"an integer {bound}"

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}") from None
        if not (low < value if strict else low <= value) or not value < math.inf:  # NaN too
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return value

    return parse


def _add_cell_arguments(parser, extra_mb, images, policies=_POLICIES, sized=True) -> None:
    """The flags that describe one experiment cell (see :func:`_cell_config`).

    Without ``sized`` the workload size is fixed at ``extra_mb`` / ``images``
    instead of being a flag.
    """
    if sized:
        parser.add_argument("--extra-mb", type=_minimum(0, float), default=extra_mb,
                            help="extra staged file size per staging job (MB)")
    parser.add_argument("--streams", type=_minimum(1), default=4,
                        help="default parallel streams per transfer")
    parser.add_argument("--policy", choices=list(policies), default="greedy")
    parser.add_argument("--threshold", type=_minimum(1), default=50,
                        help="max streams between a host pair")
    if sized:
        parser.add_argument("--images", type=_minimum(1), default=images,
                            help="Montage input images (= staging jobs)")
    else:
        parser.set_defaults(extra_mb=extra_mb, images=images)
    parser.add_argument("--seed", type=int, default=0)


def _cell_config(args, **fields):
    """The :class:`ExperimentConfig` the cell flags describe, plus ``fields``."""
    from repro.experiments import ExperimentConfig

    return ExperimentConfig(
        extra_file_mb=args.extra_mb,
        default_streams=args.streams,
        policy=None if args.policy == "none" else args.policy,
        threshold=args.threshold,
        n_images=args.images,
        seed=args.seed,
        **fields,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Policy-driven data staging for scientific workflows "
            "(SC 2012 reproduction)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table4", help="print Table IV (maximum simultaneous streams)")

    run = sub.add_parser("run", help="run one experiment cell")
    _add_cell_arguments(run, extra_mb=100.0, images=89)
    run.add_argument("--adaptive", action="store_true",
                     help="adapt the threshold from observed throughput")
    run.add_argument("--max-staging-gb", type=float, default=None,
                     help="storage-constrained staging budget (GB)")
    run.add_argument("--output-site", default=None,
                     help="stage final outputs to this site (e.g. archive)")

    figure = sub.add_parser("figure", help="regenerate one of Figs. 5-9")
    figure.add_argument("number", type=int, choices=[5, 6, 7, 8, 9])
    figure.add_argument("--replicates", type=_minimum(1), default=3)
    figure.add_argument("--quick", action="store_true",
                        help="reduced sweep (endpoints only)")

    campaign = sub.add_parser("campaign", help="run a steady staging campaign")
    campaign.add_argument("--transfers", type=_minimum(1), default=200)
    campaign.add_argument("--mb", type=_minimum(0, float, strict=True), default=200.0)
    campaign.add_argument("--workers", type=_minimum(1), default=20)
    campaign.add_argument("--streams", type=_minimum(1), default=8)
    campaign.add_argument("--policy", choices=["greedy", "none"], default="greedy")
    campaign.add_argument("--threshold", type=_minimum(1), default=50)
    campaign.add_argument("--adaptive", action="store_true")
    campaign.add_argument("--seed", type=int, default=0)

    serve = sub.add_parser("serve", help="start the RESTful Policy Service")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="0 picks a free port")
    serve.add_argument("--policy", choices=["greedy", "balanced", "fifo"],
                       default="greedy")
    serve.add_argument("--threshold", type=_minimum(1), default=50)
    serve.add_argument("--default-streams", type=_minimum(1), default=4)
    serve.add_argument("--cluster-count", type=_minimum(1), default=None)
    serve.add_argument("--access-control", action="store_true",
                       help="enable host denials and staging quotas")
    serve.add_argument("--shards", type=_minimum(0), default=0,
                       help="partition policy memory across N shards behind "
                            "a consistent-hash router (0 = single service)")
    serve.add_argument("--journal-root", default=None,
                       help="journal directory (per shard under it with "
                            "--shards); a single service resumes from it")

    lint = sub.add_parser(
        "lint",
        help="statically verify policy rule sets and staged plans",
        description=(
            "Run the repro.analysis checkers: the rule-set linter over "
            "shipped (or all) rule sets, the plan validator over a "
            "planned Montage workflow, and (with --verify) the "
            "verifier over every composed rule pack.  Exits 1 when any "
            "error-severity finding survives suppression; dead "
            "suppressions are surfaced as S001 warnings."
        ),
    )
    lint.add_argument("--all", action="store_true",
                      help="lint every shipped rule set and a Montage plan")
    lint.add_argument("--rules", default=None, metavar="SET[,SET...]",
                      help="comma-separated rule sets to lint "
                           "(fifo, greedy, balanced, access, priority, ...); "
                           "with --verify also compositions such as "
                           "greedy_leases")
    lint.add_argument("--plan", choices=["montage"], default=None,
                      help="also lint a freshly planned workflow")
    lint.add_argument("--images", type=_minimum(1), default=20,
                      help="Montage input images for --plan (default 20)")
    lint.add_argument("--format", choices=["text", "json", "sarif"],
                      default="text")
    lint.add_argument("--suppress", action="append", default=[],
                      metavar="CHECK[:substring]",
                      help="suppress findings of a check id, optionally "
                           "only for subjects containing the substring "
                           "(repeatable)")
    lint.add_argument("--verify", action="store_true",
                      help="run the verifier (V005: compiler agreement) "
                           "over every composition the Policy Service "
                           "instantiates — or only those named in --rules")

    trace = sub.add_parser(
        "trace",
        help="run one traced experiment cell and write trace artifacts",
        description=(
            "Run an experiment cell with the observability stack attached "
            "(tracer + metrics registry + rule profiler) and write "
            "trace.json (Chrome trace_event, opens in Perfetto), "
            "events.jsonl, metrics.prom, rule_profile.txt, and "
            "provenance.json into the output directory."
        ),
    )
    trace.add_argument("scenario", nargs="?", default="examples-montage",
                       choices=["examples-montage", "chaos-montage",
                                "tenant-ensemble"],
                       help="examples-montage: a small augmented-Montage cell; "
                            "chaos-montage: the same cell under a mid-run "
                            "service outage (fault events on the trace); "
                            "tenant-ensemble: a 3-tenant fair-share ensemble "
                            "(tenant.* events on the trace)")
    trace.add_argument("--out", default=None, metavar="DIR",
                       help="artifact directory (default traces/<scenario>)")
    _add_cell_arguments(trace, extra_mb=20.0, images=12)

    explain = sub.add_parser(
        "explain",
        help="replay a seeded cell and print one transfer's decision record",
        description=(
            "Re-run a deterministic experiment cell and print the "
            "decision-provenance record for one transfer id: the rule "
            "firings (with salience tiers and working-memory operations), "
            "the ledger values that gated the advice, and the group/lease "
            "ids it minted.  The same seed yields the same record — same "
            "digest — whatever --shards is chosen."
        ),
    )
    explain.add_argument("tid", type=int, help="transfer id to explain")
    # no "none": a cell without policy has no decision to explain
    _add_cell_arguments(explain, extra_mb=20.0, images=12, policies=_POLICIES[:-1])
    explain.add_argument("--shards", type=_minimum(0), default=0,
                         help="shard the policy service N ways "
                              "(0 = single service; records are identical)")
    explain.add_argument("--format", choices=["text", "json"], default="text")

    ensemble = sub.add_parser(
        "ensemble",
        help="run a multi-tenant workflow ensemble with fair-share admission",
        description=(
            "Run a queue of Montage workflows owned by several tenants "
            "against one testbed and one Policy Service.  The admission "
            "controller orders the queue by the chosen scheduler (weighted "
            "fair share over bytes staged, strict priority, or FIFO), "
            "enforces per-tenant concurrency caps and byte quotas, and the "
            "policy rules meter per-tenant aggregate stream budgets.  "
            "Without --config a built-in 3-tenant demo (weights 1/2/4, "
            "mixed priority) runs."
        ),
    )
    ensemble.add_argument("--config", default=None, metavar="FILE",
                          help="JSON ensemble description: {tenants: [...], "
                               "submissions: [...], scheduler, max_concurrent, "
                               "backpressure: [high, low]}")
    ensemble.add_argument("--scheduler", choices=["fair", "priority", "fifo"],
                          default=None, help="override the queue ordering")
    ensemble.add_argument("--max-concurrent", type=int, default=None,
                          help="override the global workflow slot count")
    _add_cell_arguments(ensemble, extra_mb=10.0, images=6, sized=False)

    return parser


# ------------------------------------------------------------------ commands
def _cmd_table4(out) -> int:
    from repro.policy.allocation import format_table4, max_streams_table

    print("Table IV — maximum streams for simultaneous transfers", file=out)
    print(format_table4(max_streams_table()), file=out)
    return 0


def _cmd_run(args, out) -> int:
    from repro.experiments import run_cell

    cfg = _cell_config(
        args,
        adaptive=args.adaptive,
        cluster_factor=2 if args.policy == "balanced" else None,
        max_staging_bytes=args.max_staging_gb * 1e9 if args.max_staging_gb else None,
        output_site=args.output_site,
    )
    metrics = run_cell(cfg)
    print(f"workflow      : {metrics.workflow_id}", file=out)
    print(f"success       : {metrics.success}", file=out)
    print(f"makespan      : {metrics.makespan:.1f} s", file=out)
    print(f"staging time  : {metrics.staging_time:.1f} s", file=out)
    print(f"bytes staged  : {metrics.bytes_staged / 1e9:.2f} GB", file=out)
    print(f"peak WAN load : {metrics.peak_streams.get('wan', 0)} streams", file=out)
    print(f"peak footprint: {metrics.peak_footprint / 1e9:.2f} GB", file=out)
    if cfg.policy:
        print(f"policy calls  : {metrics.policy_calls} "
              f"({metrics.policy_overhead:.1f} s total latency)", file=out)
    return 0 if metrics.success else 1


def _cmd_figure(args, out) -> int:
    from repro.experiments.figures import (
        DEFAULT_STREAM_SWEEP,
        FIG5_SIZES_MB,
        FIG_SIZE_MB,
        fig5_series,
        fig_threshold_series,
        no_policy_point,
    )
    from repro.experiments.figures import format_series_table

    defaults = (4, 8, 12) if args.quick else DEFAULT_STREAM_SWEEP
    if args.number == 5:
        sizes = (0, 100, 1000) if args.quick else FIG5_SIZES_MB
        series = fig5_series(sizes_mb=sizes, defaults=defaults,
                             replicates=args.replicates)
        print(format_series_table(
            "Fig. 5 — execution time (s), greedy threshold 50",
            "streams", series), file=out)
        return 0
    size = FIG_SIZE_MB[args.number]
    series = fig_threshold_series(size, defaults=defaults,
                                  replicates=args.replicates)
    nop = no_policy_point(size, replicates=args.replicates)
    print(format_series_table(
        f"Fig. {args.number} — execution time (s), {size} MB extra files",
        "streams", series), file=out)
    mean, std = nop.at(4)
    print(f"\nno policy (default Pegasus, 4 streams): {mean:.1f} ± {std:.1f} s",
          file=out)
    return 0


def _cmd_campaign(args, out) -> int:
    from repro.experiments.campaign import CampaignConfig, run_staging_campaign

    cfg = CampaignConfig(
        n_transfers=args.transfers,
        transfer_mb=args.mb,
        workers=args.workers,
        default_streams=args.streams,
        policy=None if args.policy == "none" else args.policy,
        threshold=args.threshold,
        adaptive=args.adaptive,
        seed=args.seed,
    )
    result = run_staging_campaign(cfg)
    print(f"transfers    : {result.transfers_done}", file=out)
    print(f"duration     : {result.duration:.1f} s", file=out)
    print(f"throughput   : {result.aggregate_throughput / 1e6:.1f} MB/s", file=out)
    print(f"peak streams : {result.peak_streams}", file=out)
    if result.final_threshold is not None:
        trajectory = [h[1] for h in result.threshold_history]
        print(f"adaptive     : final threshold {result.final_threshold}, "
              f"trajectory {trajectory}", file=out)
    return 0


def _cmd_serve(args, out) -> int:
    from repro.policy.journal import JournalError, PolicyJournal
    from repro.policy.model import PolicyConfig
    from repro.policy.rest import PolicyRestServer
    from repro.policy.service import PolicyService

    config = PolicyConfig(
        policy=args.policy,
        default_streams=args.default_streams,
        max_streams=args.threshold,
        cluster_count=args.cluster_count,
        access_control=args.access_control,
    )
    service: PolicyService | ShardedPolicyService
    if args.shards >= 1:
        from repro.policy import sharding

        try:
            service = sharding.ShardedPolicyService(
                config,
                num_shards=args.shards,
                journal_root=args.journal_root,
            )
        except JournalError as exc:
            # The shards could replay their journals, but the router's ids
            # and ownership directory are not durable, so a resumed fleet
            # would hand out colliding ids.
            print(
                f"repro serve: a journaled fleet cannot be restarted on a "
                f"used --journal-root yet ({exc})",
                file=sys.stderr,
            )
            return 2
        flavor = f"{args.shards}-shard router"
    elif args.journal_root is None:
        service = PolicyService(config)
        flavor = "single service"
    else:
        journal = PolicyJournal(args.journal_root)
        try:
            if journal.has_state():
                service = PolicyService.recover(journal, config=config)
                flavor = "single service, resumed from its journal"
            else:
                service = PolicyService(config, journal=journal)
                flavor = "single service, journaled"
        except JournalError as exc:
            print(f"repro serve: cannot resume from --journal-root ({exc})",
                  file=sys.stderr)
            return 2
    server = PolicyRestServer(service, host=args.host, port=args.port)
    server.start()
    print(
        f"Policy Service ({args.policy}, {flavor}) "
        f"listening on {server.url}",
        file=out,
    )
    print("Ctrl-C to stop.", file=out)
    # SIGTERM (systemd, `docker stop`) takes the Ctrl-C route: 503 new
    # requests, drain in-flight ones, close the service.
    if threading.current_thread() is threading.main_thread():
        signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        threading.Event().wait()
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
        service.close()
    return 0


def _lint_montage_plan(n_images: int):
    """Plan a Montage workflow against the paper's catalog trio."""
    from repro.catalogs import ReplicaCatalog, SiteCatalog, SiteEntry
    from repro.planner import Planner, PlanOptions
    from repro.workflow.montage import (
        EXTRA_FILE_PREFIX,
        MontageConfig,
        montage_transformations,
        montage_workflow,
    )

    sites = SiteCatalog()
    sites.add(SiteEntry(name="isi", storage_host="obelix",
                        scratch_dir="/nfs/scratch", nodes=9, cores_per_node=6))
    sites.add(SiteEntry(name="archive", storage_host="archive-host",
                        scratch_dir="/archive"))
    replicas = ReplicaCatalog()
    workflow = montage_workflow(MontageConfig(n_images=n_images))
    for f in workflow.input_files():
        if f.lfn.startswith(EXTRA_FILE_PREFIX):
            replicas.register(f.lfn, "futuregrid", f"gsiftp://fg-vm/data/{f.lfn}")
        else:
            replicas.register(f.lfn, "isi-web", f"http://web-isi/images/{f.lfn}")
    planner = Planner(sites, montage_transformations(), replicas)
    return planner.plan(workflow, "isi", PlanOptions(output_site="archive"))


def _cmd_lint(args, out) -> int:
    import json

    from repro.analysis import (
        flag_dead_suppressions,
        lint_plan,
        lint_rule_set,
        shipped_rule_sets,
        verify_compositions,
        verify_pack,
    )

    selected: list[str] = []
    if args.rules:
        selected = [name.strip() for name in args.rules.split(",") if name.strip()]
    shipped = shipped_rule_sets()
    # --verify also knows the compositions only the verifier runs
    compositions = verify_compositions() if args.verify else {}
    unknown = sorted(set(selected) - set(shipped) - set(compositions))
    if unknown:
        print(f"unknown rule set(s): {', '.join(unknown)}", file=out)
        return 2
    rule_sets = [name for name in selected if name in shipped]
    plan_targets = [args.plan] if args.plan else []
    if args.all:
        rule_sets = sorted(shipped)
        plan_targets = ["montage"]
    elif selected:
        compositions = {n: compositions[n] for n in selected if n in compositions}
    if not rule_sets and not plan_targets and not args.verify:
        print("nothing to lint: pass --all, --rules, --plan, or --verify",
              file=out)
        return 2

    reports = []
    for name in rule_sets:
        reports.append(lint_rule_set(name))
    for target in plan_targets:
        reports.append(lint_plan(_lint_montage_plan(args.images)))
    for report in reports:
        report.suppress(args.suppress)

    for name, (rules, _globals) in compositions.items():
        reports.append(verify_pack(name, rules, args.suppress))

    dead = flag_dead_suppressions(reports)
    if dead.findings:
        reports.append(dead)

    if args.format == "json":
        print(json.dumps([r.to_dict() for r in reports], indent=2), file=out)
    elif args.format == "sarif":
        from repro.analysis.sarif import render_sarif

        print(render_sarif(reports), file=out)
    else:
        for report in reports:
            print(report.render_text(), file=out)
            print(file=out)
        errors = sum(len(r.errors()) for r in reports)
        warnings = sum(len(r.by_severity("warning")) for r in reports)
        print(f"{len(reports)} target(s) analyzed: "
              f"{errors} error(s), {warnings} warning(s)", file=out)
    return 1 if any(r.errors() for r in reports) else 0


#: The built-in demo ensemble: three tenants of unequal weight (1/2/4),
#: one of them in a higher priority class, two small workflows each.
DEMO_ENSEMBLE = {
    "tenants": [
        {"tenant": "bronze", "weight": 1},
        {"tenant": "silver", "weight": 2},
        {"tenant": "gold", "weight": 4, "priority_class": 1},
    ],
    "submissions": [
        {"tenant": "bronze", "count": 2},
        {"tenant": "silver", "count": 2},
        {"tenant": "gold", "count": 2},
    ],
    "scheduler": "fair",
    "max_concurrent": 2,
}


def _ensemble_inputs(doc: dict):
    """Turn a JSON ensemble description into runner arguments."""
    from repro.tenancy import AdmissionConfig
    from repro.workflow.montage import MB, MontageConfig, augmented_montage

    tenants = doc.get("tenants") or []
    if not tenants:
        raise ValueError("ensemble config needs a non-empty 'tenants' list")
    submissions = []
    for entry in doc.get("submissions") or []:
        tenant = entry["tenant"]
        for i in range(int(entry.get("count", 1))):
            name = entry.get("name", f"{tenant}-wf{i}")
            if int(entry.get("count", 1)) > 1 and "name" in entry:
                name = f"{entry['name']}-{i}"
            workflow = augmented_montage(
                float(entry.get("extra_mb", 10.0)) * MB,
                MontageConfig(
                    n_images=int(entry.get("images", 6)),
                    name=name,
                    lfn_prefix=f"{name}_" if not entry.get("shared_dataset") else "",
                ),
            )
            submissions.append((tenant, workflow))
    if not submissions:
        raise ValueError("ensemble config needs a non-empty 'submissions' list")
    watermarks = doc.get("backpressure")
    admission = AdmissionConfig(
        max_concurrent=int(doc.get("max_concurrent", 2)),
        backpressure_high=watermarks[0] if watermarks else None,
        backpressure_low=watermarks[1] if watermarks else None,
    )
    return tenants, submissions, admission, doc.get("scheduler", "fair")


def _cmd_ensemble(args, out) -> int:
    import json

    from repro.experiments.runner import run_tenant_ensemble
    from repro.tenancy import AdmissionConfig

    if args.config:
        with open(args.config) as fh:
            doc = json.load(fh)
    else:
        doc = DEMO_ENSEMBLE
    tenants, submissions, admission, scheduler = _ensemble_inputs(doc)
    if args.scheduler:
        scheduler = args.scheduler
    if args.max_concurrent is not None:
        admission = AdmissionConfig(
            max_concurrent=args.max_concurrent,
            backpressure_high=admission.backpressure_high,
            backpressure_low=admission.backpressure_low,
        )
    result = run_tenant_ensemble(
        _cell_config(args), tenants, submissions, admission=admission, scheduler=scheduler
    )
    print(f"scheduler      : {scheduler} "
          f"(max {admission.max_concurrent} concurrent)", file=out)
    print(f"admitted       : {len(result.metrics)} workflow(s) in order "
          f"{', '.join(result.admission_order)}", file=out)
    for tenant in sorted(result.tenant_bytes):
        share = result.tenant_shares.get(tenant, 0.0)
        print(f"  {tenant:<12s} {result.tenant_bytes[tenant] / 1e9:7.2f} GB staged "
              f"(fair share {share:.0%})", file=out)
    for tenant, name, reason in result.rejected:
        print(f"rejected       : {name} ({tenant}): {reason}", file=out)
    ok = all(m.success for m in result.metrics)
    print(f"success        : {ok}", file=out)
    return 0 if ok else 1


def _cmd_trace(args, out) -> int:
    from pathlib import Path

    from repro.experiments.tracing import (
        run_traced_cell,
        run_traced_chaos,
        run_traced_ensemble,
    )

    cfg = _cell_config(args)
    if args.scenario == "chaos-montage" and cfg.policy is None:
        print("chaos-montage needs a policy (got --policy none)", file=out)
        return 2
    if args.scenario == "tenant-ensemble":
        tenants, submissions, admission, scheduler = _ensemble_inputs(DEMO_ENSEMBLE)
        run = run_traced_ensemble(
            cfg, tenants, submissions, admission=admission, scheduler=scheduler
        )
        outdir = Path(args.out) if args.out else Path("traces") / args.scenario
        paths = run.write_artifacts(outdir)
        summary = run.tracer.summary()
        ok = all(m.success for m in run.result.metrics)
        print(f"workflows: {len(run.result.metrics)} "
              f"({', '.join(run.result.admission_order)})", file=out)
        print(f"success  : {ok}", file=out)
        print(f"events   : {summary['events']} ({summary['spans']} spans, "
              f"{summary['categories'].get('tenant', 0)} tenant events)", file=out)
        print("artifacts:", file=out)
        for name in sorted(paths):
            print(f"  {name:<16s} {paths[name]}", file=out)
        return 0 if ok else 1
    if args.scenario == "chaos-montage":
        run = run_traced_chaos(cfg)
    else:
        run = run_traced_cell(cfg)
    outdir = Path(args.out) if args.out else Path("traces") / args.scenario
    paths = run.write_artifacts(outdir)
    summary = run.tracer.summary()
    print(f"workflow : {run.metrics.workflow_id}", file=out)
    print(f"success  : {run.metrics.success}", file=out)
    print(f"makespan : {run.metrics.makespan:.1f} s", file=out)
    print(f"events   : {summary['events']} ({summary['spans']} spans)", file=out)
    print("artifacts:", file=out)
    for name in sorted(paths):
        print(f"  {name:<16s} {paths[name]}", file=out)
    if cfg.policy is not None:
        print(file=out)
        print(run.profiler.report(), file=out)
    return 0 if run.metrics.success else 1


def _cmd_explain(args, out) -> int:
    import json as _json

    from repro.experiments.runner import cell_workflow, execute_workflow
    from repro.planner.planner import fresh_plan_ids
    from repro.policy.provenance import render_narrative

    cfg = _cell_config(args, shards=args.shards)
    with fresh_plan_ids():
        execution = execute_workflow(cfg, cell_workflow(cfg))
    record = execution.policy.service.explain(args.tid)
    if record is None:
        print(f"no decision record for transfer {args.tid} "
              f"(this cell issued transfer ids starting at 1)", file=out)
        return 1
    if args.format == "json":
        print(_json.dumps(record, indent=2, sort_keys=True), file=out)
    else:
        print(render_narrative(record), file=out)
    return 0


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    handlers = {
        "table4": lambda: _cmd_table4(out),
        "run": lambda: _cmd_run(args, out),
        "figure": lambda: _cmd_figure(args, out),
        "campaign": lambda: _cmd_campaign(args, out),
        "serve": lambda: _cmd_serve(args, out),
        "lint": lambda: _cmd_lint(args, out),
        "trace": lambda: _cmd_trace(args, out),
        "explain": lambda: _cmd_explain(args, out),
        "ensemble": lambda: _cmd_ensemble(args, out),
    }
    return handlers[args.command]()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
