"""The Montage astronomy workflow (the paper's evaluation workload).

Montage builds sky mosaics: input images are re-projected (``mProjectPP``),
overlapping pairs are difference-fitted (``mDiffFit``), the fits are
concatenated (``mConcatFit``) and a background model solved (``mBgModel``),
backgrounds are rectified per image (``mBackground``), and the corrected
images are tabulated (``mImgtbl``), co-added into the mosaic (``mAdd``),
shrunk (``mShrink``) and rendered (``mJPEG``).

Sizing: the paper's one-degree-square run has **89 data staging jobs** with
Pegasus configured for one stage-in job per compute job, and ~2 MB mean
stage-in size for mProjectPP.  We therefore size the default configuration
at 89 input images (our planner emits one stage-in job per compute job with
remote inputs, i.e. one per ``mProjectPP``).  The big-data augmentation of
Fig. 3 — one additional file per data staging job — is
:func:`augmented_montage`: each ``mProjectPP`` gains one extra input file
of the requested size, which the planner will fetch from wherever the
replica catalog locates it (the FutureGrid-like site in the experiments).

Runtime models follow published Montage task profiles, scaled so
``mProjectPP`` runs "several seconds" as the paper states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.catalogs.transformation import TransformationCatalog
from repro.workflow.dag import File, Job, Workflow

__all__ = [
    "MontageConfig",
    "montage_workflow",
    "augmented_montage",
    "montage_transformations",
    "MONTAGE_RUNTIMES",
    "EXTRA_FILE_PREFIX",
]

KB = 1_000
MB = 1_000_000

#: Prefix of the augmentation files staged from the remote big-data source.
EXTRA_FILE_PREFIX = "montage_extra_"

#: (mean seconds, std-dev seconds) per transformation.
MONTAGE_RUNTIMES: dict[str, tuple[float, float]] = {
    "mProjectPP": (6.0, 1.0),
    "mDiffFit": (2.0, 0.4),
    "mConcatFit": (20.0, 3.0),
    "mBgModel": (40.0, 5.0),
    "mBackground": (2.0, 0.4),
    "mImgtbl": (8.0, 1.0),
    "mAdd": (50.0, 8.0),
    "mShrink": (12.0, 2.0),
    "mJPEG": (2.0, 0.3),
}


@dataclass(frozen=True)
class MontageConfig:
    """Shape and file-size parameters of a Montage run.

    ``n_images=89`` reproduces the paper's staging-job count.
    ``lfn_prefix`` namespaces every file name — give two concurrently
    running instances different prefixes when they should stage *disjoint*
    datasets (identical names mean shared datasets, the paper's
    cross-workflow sharing scenario).
    """

    n_images: int = 89
    image_size: float = 2 * MB
    projected_size: float = 4 * MB
    table_size: float = 1 * KB
    name: str = "montage-1deg"
    lfn_prefix: str = ""

    def __post_init__(self) -> None:
        if self.n_images < 1:
            raise ValueError("n_images must be >= 1")
        if min(self.image_size, self.projected_size, self.table_size) <= 0:
            raise ValueError("file sizes must be positive")

    @property
    def grid_cols(self) -> int:
        return max(1, math.ceil(math.sqrt(self.n_images)))


def _overlap_pairs(config: MontageConfig) -> list[tuple[int, int]]:
    """Adjacent image pairs on the mosaic grid (horizontal + vertical)."""
    cols = config.grid_cols
    pairs: list[tuple[int, int]] = []
    for i in range(config.n_images):
        right = i + 1
        if right % cols != 0 and right < config.n_images:
            pairs.append((i, right))
        below = i + cols
        if below < config.n_images:
            pairs.append((i, below))
    return pairs


def montage_workflow(config: MontageConfig | None = None) -> Workflow:
    """Build the abstract Montage workflow for ``config``."""
    cfg = config or MontageConfig()
    wf = Workflow(cfg.name)
    width = len(str(max(cfg.n_images - 1, 1)))
    px = cfg.lfn_prefix

    region = File(f"{px}region.hdr", 1 * KB)
    raw = [File(f"{px}raw_{i:0{width}d}.fits", cfg.image_size) for i in range(cfg.n_images)]
    proj = [File(f"{px}proj_{i:0{width}d}.fits", cfg.projected_size) for i in range(cfg.n_images)]
    corr = [File(f"{px}corr_{i:0{width}d}.fits", cfg.projected_size) for i in range(cfg.n_images)]

    for i in range(cfg.n_images):
        wf.add_job(
            Job(
                id=f"mProjectPP_{i:0{width}d}",
                transform="mProjectPP",
                inputs=(raw[i], region),
                outputs=(proj[i],),
            )
        )

    pairs = _overlap_pairs(cfg)
    diffs = []
    for k, (i, j) in enumerate(pairs):
        out = File(f"{px}diff_{k:04d}.tbl", cfg.table_size)
        diffs.append(out)
        wf.add_job(
            Job(
                id=f"mDiffFit_{k:04d}",
                transform="mDiffFit",
                inputs=(proj[i], proj[j]),
                outputs=(out,),
            )
        )

    fits_tbl = File(f"{px}fits.tbl", 10 * KB)
    wf.add_job(
        Job(id="mConcatFit", transform="mConcatFit", inputs=tuple(diffs), outputs=(fits_tbl,))
    )

    corrections = File(f"{px}corrections.tbl", 10 * KB)
    wf.add_job(
        Job(id="mBgModel", transform="mBgModel", inputs=(fits_tbl,), outputs=(corrections,))
    )

    for i in range(cfg.n_images):
        wf.add_job(
            Job(
                id=f"mBackground_{i:0{width}d}",
                transform="mBackground",
                inputs=(proj[i], corrections),
                outputs=(corr[i],),
            )
        )

    newimages = File(f"{px}newimages.tbl", 50 * KB)
    wf.add_job(
        Job(id="mImgtbl", transform="mImgtbl", inputs=tuple(corr), outputs=(newimages,))
    )

    mosaic = File(f"{px}mosaic.fits", cfg.projected_size * cfg.n_images * 0.75)
    wf.add_job(
        Job(
            id="mAdd",
            transform="mAdd",
            inputs=(*corr, newimages),
            outputs=(mosaic,),
        )
    )

    shrunk = File(f"{px}mosaic_small.fits", 5 * MB)
    wf.add_job(Job(id="mShrink", transform="mShrink", inputs=(mosaic,), outputs=(shrunk,)))
    jpeg = File(f"{px}mosaic.jpg", 1 * MB)
    wf.add_job(Job(id="mJPEG", transform="mJPEG", inputs=(shrunk,), outputs=(jpeg,)))

    wf.validate()
    return wf


def augmented_montage(
    extra_file_size: float, config: MontageConfig | None = None
) -> Workflow:
    """Montage augmented with one extra input file per data staging job.

    The paper (Fig. 3) attaches one additional large file (10 MB – 1 GB)
    to every data staging job.  Since the planner creates one stage-in job
    per compute job with remote inputs (= each ``mProjectPP``), adding one
    extra input per ``mProjectPP`` yields exactly one extra file per
    staging job.  ``extra_file_size == 0`` returns the plain workflow.
    """
    if not 0 <= extra_file_size < math.inf:  # NaN too
        raise ValueError(f"extra_file_size must be finite and >= 0, got {extra_file_size}")
    cfg = config or MontageConfig()
    if extra_file_size == 0:
        return montage_workflow(cfg)

    wf = Workflow(f"{cfg.name}-extra{int(extra_file_size / MB)}MB")
    base = montage_workflow(cfg)
    width = len(str(max(cfg.n_images - 1, 1)))
    for job_id in sorted(base.jobs):
        job = base.jobs[job_id]
        if job.transform == "mProjectPP":
            idx = job_id.split("_")[-1]
            extra = File(
                f"{cfg.lfn_prefix}{EXTRA_FILE_PREFIX}{idx:>0{width}}.dat",
                extra_file_size,
            )
            job = Job(
                id=job.id,
                transform=job.transform,
                inputs=(*job.inputs, extra),
                outputs=job.outputs,
            )
        wf.add_job(job)
    wf.validate()
    return wf


def montage_transformations() -> TransformationCatalog:
    """Transformation catalog with the Montage runtime models."""
    catalog = TransformationCatalog()
    for name, (mean, std) in MONTAGE_RUNTIMES.items():
        catalog.add(name, mean, std)
    return catalog
