"""The simulated testbed standing in for the paper's physical one.

Paper testbed -> simulation mapping
-----------------------------------
* **Obelix cluster** (9 nodes x 6-core Xeon, NFS over 1 Gbit LAN): a
  54-slot :class:`ClusterScheduler`; the NFS server is a shared link every
  staging route crosses.
* **Montage input images** served by an Apache web server at ISI: host
  ``web-isi`` reached over the LAN.
* **FutureGrid Alamo VM at TACC** running GridFTP 6.5: host ``fg-vm``
  reached over the WAN.
* **WAN calibration**: the paper reports "bandwidth for large transfers
  ... about 28 Mbits/sec"; we take 28 Mbit/s as the per-stream TCP window
  cap (so a lone stream sees the quoted rate and parallel streams help).
  On contended links, stream counts act as max–min fair-share weights.
  The shared path + endpoint ceiling is 40 MB/s, so aggregate throughput
  saturates well before the paper's allocations top out, then degrades
  past a congestion knee of ~70 total streams (endpoint/VM/loss
  pressure) — the regime Table IV's allocations probe: a threshold of 50
  keeps 57-65 streams (below the knee), no-policy sits at 80 (slightly
  past), thresholds 100/200 push 103-203 streams (deep past).  See
  DESIGN.md §5 for how each constant maps to a result shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional


from repro.catalogs import ReplicaCatalog, SiteCatalog, SiteEntry, TransformationCatalog
from repro.des import Environment, RngRegistry
from repro.net import FlowNetwork, GridFTPClient, Link, Network, StreamModel
from repro.net.topology import MB, mbit
from repro.workflow.dag import Workflow
from repro.workflow.montage import EXTRA_FILE_PREFIX, montage_transformations

__all__ = ["TestbedParams", "Testbed", "build_testbed"]


@dataclass(frozen=True)
class TestbedParams:
    """All tunables of the simulated testbed (defaults = paper setup)."""

    __test__ = False  # not a pytest test class despite the Test* name

    # -- cluster -----------------------------------------------------------
    nodes: int = 9
    cores_per_node: int = 6
    submit_overhead: float = 0.5

    # -- WAN (fg-vm -> obelix) ----------------------------------------------
    wan_capacity: float = 40 * MB            # shared path + endpoint ceiling
    wan_stream_rate: float = mbit(28)        # one stream's window cap
    wan_knee: int = 70
    wan_slope: float = 0.35
    wan_floor: float = 0.5

    # -- LAN and NFS ----------------------------------------------------------
    lan_capacity: float = mbit(1000)
    nfs_capacity: float = 100 * MB

    # -- transfer setup/ramp ----------------------------------------------------
    session_setup: float = 1.0
    stream_setup: float = 0.15
    ramp_time: float = 1.2
    ramp_ref: float = 50.0

    # -- storage ----------------------------------------------------------------
    scratch_capacity: float = float("inf")

    # -- noise / failures ---------------------------------------------------------
    overhead_jitter: float = 0.02
    failure_rate: float = 0.0

    # -- policy service ---------------------------------------------------------
    policy_latency: float = 0.15


@dataclass
class Testbed:
    """A wired-up simulation environment ready to plan and run workflows."""

    __test__ = False  # not a pytest test class despite the Test* name

    params: TestbedParams
    env: Environment
    rng: RngRegistry
    network: Network
    fabric: FlowNetwork
    gridftp: GridFTPClient
    sites: SiteCatalog
    transformations: TransformationCatalog
    replicas: ReplicaCatalog
    host_site: dict[str, str] = field(default_factory=dict)

    def register_workflow_inputs(self, workflow: Workflow, remote_all: bool = False) -> int:
        """Register replicas for a workflow's external inputs.

        Montage raw images and headers live on the ISI web server; the
        big-data augmentation files live on the FutureGrid-like VM.  With
        ``remote_all`` every input is placed on the remote VM instead —
        used for non-Montage workloads whose whole dataset crosses the
        WAN.  Returns the number of replicas registered.
        """
        count = 0
        for f in workflow.input_files():
            if remote_all or EXTRA_FILE_PREFIX in f.lfn:
                self.replicas.register(f.lfn, "futuregrid", f"gsiftp://fg-vm/data/{f.lfn}")
            else:
                self.replicas.register(f.lfn, "isi-web", f"http://web-isi/images/{f.lfn}")
            count += 1
        return count


def build_testbed(
    params: Optional[TestbedParams] = None, seed: int = 0, tracer=None
) -> Testbed:
    """Construct the simulated paper testbed.

    ``tracer`` (a :class:`repro.obs.Tracer`) is bound to the DES clock and
    threaded to every instrumented component via ``env.tracer``.
    """
    p = params or TestbedParams()
    env = Environment(tracer=tracer)
    rng = RngRegistry(seed=seed)

    network = Network()
    isi = network.add_site("isi")
    tacc = network.add_site("futuregrid")
    obelix = network.add_host("obelix", isi)
    web = network.add_host("web-isi", isi)
    fg_vm = network.add_host("fg-vm", tacc)
    archive = network.add_host("archive-host", isi)

    wan = network.add_link(
        Link(
            "wan",
            capacity=p.wan_capacity,
            stream_rate_cap=p.wan_stream_rate,
            knee=p.wan_knee,
            congestion_slope=p.wan_slope,
            congestion_floor=p.wan_floor,
        )
    )
    lan = network.add_link(Link("lan", capacity=p.lan_capacity))
    nfs = network.add_link(Link("nfs", capacity=p.nfs_capacity))
    archive_lan = network.add_link(Link("archive-lan", capacity=p.lan_capacity))

    network.add_route(fg_vm, obelix, [wan, nfs])
    network.add_route(web, obelix, [lan, nfs])
    network.add_route(obelix, archive, [archive_lan])

    model = StreamModel(
        session_setup=p.session_setup,
        stream_setup=p.stream_setup,
        ramp_time=p.ramp_time,
        ramp_ref=p.ramp_ref,
    )
    fabric = FlowNetwork(env, network, model)
    gridftp = GridFTPClient(
        fabric,
        rng=rng.stream("gridftp"),
        overhead_jitter=p.overhead_jitter,
        failure_rate=p.failure_rate,
    )

    sites = SiteCatalog()
    sites.add(
        SiteEntry(
            name="isi",
            storage_host="obelix",
            scratch_dir="/nfs/scratch",
            nodes=p.nodes,
            cores_per_node=p.cores_per_node,
        )
    )
    sites.add(SiteEntry(name="isi-web", storage_host="web-isi", scratch_dir="/images"))
    sites.add(SiteEntry(name="futuregrid", storage_host="fg-vm", scratch_dir="/data"))
    sites.add(SiteEntry(name="archive", storage_host="archive-host", scratch_dir="/archive"))

    transformations = montage_transformations()
    for generic in ("gen", "proc", "sink", "split", "join", "process"):
        transformations.add(generic, 2.0, 0.3)
    # Epigenomics-like pipeline tasks
    for name, mean, std in (
        ("fastqSplit", 5.0, 0.8), ("filterContams", 3.0, 0.5),
        ("mapReads", 15.0, 2.0), ("pileup", 4.0, 0.6),
        ("mergeBam", 8.0, 1.0), ("mapMerge", 10.0, 1.5),
    ):
        transformations.add(name, mean, std)
    # CyberShake-like seismic tasks
    for name, mean, std in (
        ("SeismogramSynthesis", 12.0, 2.0), ("PeakValCalc", 1.0, 0.2),
        ("HazardCurveCalc", 20.0, 3.0),
    ):
        transformations.add(name, mean, std)

    host_site = {
        "obelix": "isi",
        "web-isi": "isi-web",
        "fg-vm": "futuregrid",
        "archive-host": "archive",
    }

    return Testbed(
        params=p,
        env=env,
        rng=rng,
        network=network,
        fabric=fabric,
        gridftp=gridftp,
        sites=sites,
        transformations=transformations,
        replicas=ReplicaCatalog(),
        host_site=host_site,
    )


def scaled_params(base: Optional[TestbedParams] = None, **overrides) -> TestbedParams:
    """Convenience: derive a variant of the testbed parameters."""
    return replace(base or TestbedParams(), **overrides)
