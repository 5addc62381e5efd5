"""Synthetic workflow shapes beyond Montage, for ablations and benchmarks."""

from __future__ import annotations

from repro.workflow.dag import File, Job, Workflow

__all__ = ["cybershake_workflow", "epigenomics_workflow"]

MB = 1_000_000


def epigenomics_workflow(
    lanes: int = 4,
    chunks: int = 6,
    read_size: float = 20 * MB,
    name: str = "epigenomics",
) -> Workflow:
    """An Epigenomics-like pipeline-parallel workflow.

    Each sequencing *lane* splits its read file into ``chunks`` pieces that
    flow through a per-chunk pipeline (filter -> align -> dedup), are merged
    per lane, and finally combined into a genome-wide density map.  Heavy
    external inputs (the raw read files) make the staging phase matter, and
    the deep per-chunk pipelines give structure-based priorities something
    to order.
    """
    if lanes < 1 or chunks < 1:
        raise ValueError("lanes and chunks must be >= 1")
    wf = Workflow(name)
    lane_merges = []
    for lane in range(lanes):
        raw = File(f"epi_l{lane}_reads.fastq", read_size)
        pieces = [
            File(f"epi_l{lane}_c{c}_raw.fastq", read_size / chunks)
            for c in range(chunks)
        ]
        wf.add_job(
            Job(f"split_l{lane}", "fastqSplit", inputs=(raw,), outputs=tuple(pieces))
        )
        aligned = []
        for c, piece in enumerate(pieces):
            filtered = File(f"epi_l{lane}_c{c}_filtered.fastq", piece.size * 0.9)
            mapped = File(f"epi_l{lane}_c{c}_mapped.sam", piece.size * 1.2)
            deduped = File(f"epi_l{lane}_c{c}_dedup.sam", piece.size * 1.1)
            wf.add_job(Job(f"filter_l{lane}_c{c}", "filterContams",
                           inputs=(piece,), outputs=(filtered,)))
            wf.add_job(Job(f"map_l{lane}_c{c}", "mapReads",
                           inputs=(filtered,), outputs=(mapped,)))
            wf.add_job(Job(f"dedup_l{lane}_c{c}", "pileup",
                           inputs=(mapped,), outputs=(deduped,)))
            aligned.append(deduped)
        merged = File(f"epi_l{lane}_merged.bam", read_size)
        wf.add_job(Job(f"merge_l{lane}", "mergeBam",
                       inputs=tuple(aligned), outputs=(merged,)))
        lane_merges.append(merged)
    density = File("epi_density.wig", sum(f.size for f in lane_merges) * 0.1)
    wf.add_job(Job("density_map", "mapMerge", inputs=tuple(lane_merges),
                   outputs=(density,)))
    wf.validate()
    return wf


def cybershake_workflow(
    rupture_sites: int = 5,
    variations: int = 4,
    sgt_size: float = 50 * MB,
    name: str = "cybershake",
) -> Workflow:
    """A CyberShake-like seismic hazard workflow.

    Per rupture site, a large strain-green-tensor (SGT) pair is staged in
    and shared by ``variations`` seismogram syntheses, each followed by a
    peak-ground-acceleration extraction; a final curve generator combines
    everything.  The shared multi-consumer SGT inputs exercise the
    planner's staged-once bookkeeping and the policy service's
    resource-sharing rules on a non-Montage shape.
    """
    if rupture_sites < 1 or variations < 1:
        raise ValueError("rupture_sites and variations must be >= 1")
    wf = Workflow(name)
    peak_files = []
    for site in range(rupture_sites):
        sgt_x = File(f"cs_s{site}_sgt_x.bin", sgt_size)
        sgt_y = File(f"cs_s{site}_sgt_y.bin", sgt_size)
        for var in range(variations):
            seismogram = File(f"cs_s{site}_v{var}_seis.grm", sgt_size * 0.02)
            peak = File(f"cs_s{site}_v{var}_peak.bsa", 1_000.0)
            wf.add_job(
                Job(
                    f"seisgen_s{site}_v{var}",
                    "SeismogramSynthesis",
                    inputs=(sgt_x, sgt_y),
                    outputs=(seismogram,),
                )
            )
            wf.add_job(
                Job(
                    f"peakval_s{site}_v{var}",
                    "PeakValCalc",
                    inputs=(seismogram,),
                    outputs=(peak,),
                )
            )
            peak_files.append(peak)
    curves = File("cs_hazard_curves.dat", 10_000.0)
    wf.add_job(Job("hazard_curves", "HazardCurveCalc",
                   inputs=tuple(peak_files), outputs=(curves,)))
    wf.validate()
    return wf
