"""Unit tests for the simulated paper testbed."""

import pytest

from repro.experiments.environment import TestbedParams, build_testbed
from repro.net.topology import MB, mbit
from repro.workflow import augmented_montage
from repro.workflow.montage import MontageConfig


def test_default_params_match_paper_narrative():
    p = TestbedParams()
    assert p.nodes == 9 and p.cores_per_node == 6          # Obelix
    assert p.wan_stream_rate == pytest.approx(mbit(28))    # quoted bandwidth
    assert p.wan_knee == 70                                # between 65 and 80


def test_testbed_topology_complete():
    bed = build_testbed(seed=1)
    assert bed.network.route("fg-vm", "obelix").links
    assert bed.network.route("web-isi", "obelix").links
    assert bed.network.route("obelix", "archive-host").links
    # WAN and LAN routes share the NFS server link.
    wan_route = bed.network.route("fg-vm", "obelix")
    lan_route = bed.network.route("web-isi", "obelix")
    assert wan_route.links[-1] is lan_route.links[-1]


def test_testbed_catalogs():
    bed = build_testbed(seed=1)
    assert bed.sites.get("isi").slots == 54
    assert "mProjectPP" in bed.transformations
    assert "process" in bed.transformations  # generic transform for tests
    assert bed.host_site["obelix"] == "isi"


def test_register_workflow_inputs_places_replicas():
    bed = build_testbed(seed=1)
    wf = augmented_montage(10 * MB, MontageConfig(n_images=4, name="m4"))
    count = bed.register_workflow_inputs(wf)
    assert count == 4 + 1 + 4  # raw images + header + extras
    assert bed.replicas.has("raw_0.fits", site="isi-web")
    extras = [f.lfn for f in wf.input_files() if "montage_extra" in f.lfn]
    assert len(extras) == 4
    assert bed.replicas.lookup(extras[0])[0].site == "futuregrid"


def test_same_seed_same_gridftp_draws():
    a, b = build_testbed(seed=9).gridftp.rng, build_testbed(seed=9).gridftp.rng
    assert [a.random() for _ in range(3)] == [b.random() for _ in range(3)]
