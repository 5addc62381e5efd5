"""Acceptance: shared-dataset savings, chaos protection, trace artifacts."""

import json

from repro.datacatalog.model import CatalogConfig
from repro.des.faults import FaultPlan
from repro.experiments import ExperimentConfig, run_traced_cell
from repro.experiments.chaos import compare_with_faultless
from repro.experiments.runner import run_tenant_ensemble
from repro.tenancy import AdmissionConfig
from repro.workflow.montage import MB, MontageConfig, augmented_montage


def _shared_submissions():
    """Two tenants whose workflows read the SAME input dataset
    (``lfn_prefix=""`` removes the per-workflow namespace)."""
    subs = []
    for tenant, name in (("astro", "astro-wf"), ("climate", "climate-wf")):
        wf = augmented_montage(
            10.0 * MB, MontageConfig(n_images=6, name=name, lfn_prefix="")
        )
        subs.append((tenant, wf))
    return subs


def _run_ensemble(catalog):
    cfg = ExperimentConfig(
        extra_file_mb=10.0,
        n_images=6,
        policy="greedy",
        catalog=catalog,
        seed=7,
    )
    return run_tenant_ensemble(
        cfg,
        tenants=[{"tenant": "astro"}, {"tenant": "climate"}],
        submissions=_shared_submissions(),
        admission=AdmissionConfig(max_concurrent=1),
        scheduler="fifo",
    )


def test_shared_dataset_ensemble_stages_25pct_fewer_bytes():
    """The headline acceptance: with the catalog retaining shared inputs
    across workflow boundaries, the second tenant stages from the cache
    instead of re-transferring — >= 25% fewer bytes over the ensemble."""
    base = _run_ensemble(None)
    cat = _run_ensemble(CatalogConfig(default_capacity=50e9))
    b0 = sum(m.bytes_staged for m in base.metrics)
    b1 = sum(m.bytes_staged for m in cat.metrics)
    assert all(m.success for m in base.metrics)
    assert all(m.success for m in cat.metrics)
    assert b1 <= 0.75 * b0, f"expected >=25% reduction, got {b0} -> {b1}"
    assert base.catalog_census is None
    assert cat.catalog_census is not None
    assert len(cat.catalog_census["replicas"]) > 0


def _content(census):
    """Timing-free view of a census: what is on disk and how big."""
    return (
        {(r["lfn"], r["site"], r["nbytes"], r["checksum"])
         for r in census["replicas"]},
        [(s["site"], s["capacity_bytes"], s["used_bytes"])
         for s in census["sites"]],
    )


def test_chaos_crash_replay_keeps_catalog_consistent(tmp_path):
    """Zero cleanup-protection regressions under chaos: a crash+replay
    run finishes with the byte-identical staged set of a clean run, and
    the recovered catalog tracks exactly the same replica content."""
    cfg = ExperimentConfig(
        policy="greedy",
        n_images=10,
        threshold=20,
        lease_seconds=600.0,
        retries=5,
        catalog=CatalogConfig(default_capacity=1e12),
        journal_root=tmp_path / "journal",
    )
    plan = FaultPlan.single_crash(at=60.0, duration=120.0)
    outcome = compare_with_faultless(cfg, plan)
    assert outcome["both_succeeded"]
    assert outcome["staged_sets_equal"]
    assert outcome["chaotic"].leaked_in_progress == 0
    clean, chaotic = outcome["clean"], outcome["chaotic"]
    assert clean.catalog_census is not None
    assert chaotic.catalog_census is not None
    # last_used/registered_at differ (degraded staging adopts files later
    # than a clean completion would); the content must not.
    assert _content(clean.catalog_census) == _content(chaotic.catalog_census)


def test_traced_run_writes_catalog_census_artifact(tmp_path):
    cfg = ExperimentConfig(
        extra_file_mb=2.0,
        n_images=4,
        seed=3,
        catalog=CatalogConfig(default_capacity=1e12),
    )
    traced = run_traced_cell(cfg)
    paths = traced.write_artifacts(tmp_path / "out")
    assert "catalog_census.json" in {p.rsplit("/", 1)[-1] for p in paths.values()}
    census = json.loads((tmp_path / "out" / "catalog_census.json").read_text())
    assert census == traced.catalog_census
    assert len(census["replicas"]) > 0

    bare = run_traced_cell(ExperimentConfig(extra_file_mb=2.0, n_images=4, seed=3))
    bare_paths = bare.write_artifacts(tmp_path / "bare")
    assert not (tmp_path / "bare" / "catalog_census.json").exists()
    assert "catalog_census.json" not in {
        p.rsplit("/", 1)[-1] for p in bare_paths.values()
    }
