"""Unit tests for the replica, site, and transformation catalogs."""

import numpy as np
import pytest

from repro.catalogs import (
    Replica,
    ReplicaCatalog,
    RuntimeModel,
    SiteCatalog,
    SiteEntry,
    TransformationCatalog,
)


# ------------------------------------------------------------- replicas
def test_replica_validation():
    with pytest.raises(ValueError):
        Replica("", "site", "url")
    with pytest.raises(ValueError):
        Replica("f", "", "url")
    with pytest.raises(ValueError):
        Replica("f", "site", "")


def test_register_and_lookup():
    rc = ReplicaCatalog()
    rc.register("f.dat", "isi", "gsiftp://obelix/scratch/f.dat")
    rc.register("f.dat", "tacc", "gsiftp://fg-vm/data/f.dat")
    assert len(rc.lookup("f.dat")) == 2
    assert [r.site for r in rc.lookup("f.dat", site="isi")] == ["isi"]
    assert rc.has("f.dat")
    assert rc.has("f.dat", site="tacc")
    assert not rc.has("f.dat", site="mars")
    assert not rc.has("ghost.dat")


def test_register_idempotent():
    rc = ReplicaCatalog()
    rc.register("f", "s", "u")
    rc.register("f", "s", "u")
    assert len(rc.lookup("f")) == 1


def test_unregister():
    rc = ReplicaCatalog()
    rc.register("f", "isi", "u1")
    rc.register("f", "tacc", "u2")
    assert rc.unregister("f", site="isi") == 1
    assert rc.has("f", site="tacc")
    assert rc.unregister("f") == 1
    assert not rc.has("f")
    assert rc.unregister("f") == 0


# ------------------------------------------------------------- sites
def test_site_entry_validation():
    with pytest.raises(ValueError):
        SiteEntry(name="", storage_host="h")
    with pytest.raises(ValueError):
        SiteEntry(name="s", storage_host="")
    with pytest.raises(ValueError):
        SiteEntry(name="s", storage_host="h", nodes=-1)
    with pytest.raises(ValueError):
        SiteEntry(name="s", storage_host="h", cores_per_node=0)


def test_site_slots_and_urls():
    obelix = SiteEntry(name="isi", storage_host="obelix", scratch_dir="/nfs/scratch",
                       nodes=9, cores_per_node=6)
    assert obelix.slots == 54
    assert obelix.url_for("f.fits") == "gsiftp://obelix/nfs/scratch/f.fits"


def test_site_catalog():
    sc = SiteCatalog()
    sc.add(SiteEntry(name="isi", storage_host="obelix", nodes=9, cores_per_node=6))
    sc.add(SiteEntry(name="futuregrid", storage_host="fg-vm"))
    assert sc.get("isi").slots == 54
    assert sc.get("futuregrid").slots == 0
    with pytest.raises(ValueError):
        sc.add(SiteEntry(name="isi", storage_host="x"))
    with pytest.raises(KeyError):
        sc.get("nope")


# ------------------------------------------------------- transformations
def test_runtime_model_validation():
    with pytest.raises(ValueError):
        RuntimeModel("", 1.0)
    with pytest.raises(ValueError):
        RuntimeModel("t", -1.0)
    with pytest.raises(ValueError):
        RuntimeModel("t", 1.0, std=-1)


def test_runtime_sampling_deterministic_and_truncated():
    model = RuntimeModel("t", mean=1.0, std=10.0, min_runtime=0.5)
    draws1 = [model.sample(np.random.default_rng(3)) for _ in range(1)]
    draws2 = [model.sample(np.random.default_rng(3)) for _ in range(1)]
    assert draws1 == draws2
    rng = np.random.default_rng(0)
    assert all(model.sample(rng) >= 0.5 for _ in range(200))


def test_zero_std_is_constant():
    model = RuntimeModel("t", mean=4.2)
    rng = np.random.default_rng(0)
    assert model.sample(rng) == 4.2


def test_transformation_catalog():
    tc = TransformationCatalog()
    tc.add("mProjectPP", 6.0, 1.0)
    assert "mProjectPP" in tc
    assert tc.get("mProjectPP").mean == 6.0
    with pytest.raises(ValueError):
        tc.add("mProjectPP", 1.0)
    with pytest.raises(KeyError):
        tc.get("nope")


def test_lookup_order_is_insertion_and_hash_seed_independent():
    """Source selection reads ``lookup``'s order; it must be a pure
    function of the replica set — not of insertion history or of
    PYTHONHASHSEED (regression for the dict-ordered implementation)."""
    import itertools
    import subprocess
    import sys

    entries = [
        ("f", "zeta", "gsiftp://zeta/2/f"),
        ("f", "zeta", "gsiftp://zeta/1/f"),
        ("f", "alpha", "gsiftp://alpha/1/f"),
        ("f", "mid", "gsiftp://mid/1/f"),
    ]
    expected = [
        ("alpha", "gsiftp://alpha/1/f"),
        ("mid", "gsiftp://mid/1/f"),
        ("zeta", "gsiftp://zeta/1/f"),
        ("zeta", "gsiftp://zeta/2/f"),
    ]
    for perm in itertools.permutations(entries):
        rc = ReplicaCatalog()
        for lfn, site, url in perm:
            rc.register(lfn, site, url)
        assert [(r.site, r.url) for r in rc.lookup("f")] == expected

    script = (
        "from repro.catalogs import ReplicaCatalog\n"
        f"entries = {entries!r}\n"
        "rc = ReplicaCatalog()\n"
        "for lfn, site, url in entries:\n"
        "    rc.register(lfn, site, url)\n"
        "print([(r.site, r.url) for r in rc.lookup('f')])\n"
    )
    outputs = set()
    for seed in ("0", "1", "31337"):
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": "src", "PYTHONHASHSEED": seed},
            cwd=str(__import__("pathlib").Path(__file__).parents[2]),
            check=True,
        )
        outputs.add(proc.stdout.strip())
    assert outputs == {repr(expected)}
