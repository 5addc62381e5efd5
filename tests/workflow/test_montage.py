"""Unit tests for the Montage generator and its augmentation."""

import pytest

from repro.workflow import MontageConfig, augmented_montage, montage_workflow
from repro.workflow.montage import (
    EXTRA_FILE_PREFIX,
    MB,
    MONTAGE_RUNTIMES,
    montage_transformations,
)


def test_default_config_matches_paper_staging_count():
    wf = montage_workflow()
    counts = wf.transform_counts()
    # One stage-in job per compute job with remote inputs = one per mProjectPP.
    assert counts["mProjectPP"] == 89
    assert counts["mBackground"] == 89
    for singleton in ("mConcatFit", "mBgModel", "mImgtbl", "mAdd", "mShrink", "mJPEG"):
        assert counts[singleton] == 1
    assert counts["mDiffFit"] > 89  # overlap pairs outnumber images


def test_workflow_inputs_are_raw_images_plus_header():
    wf = montage_workflow()
    inputs = [f.lfn for f in wf.input_files()]
    assert "region.hdr" in inputs
    assert sum(1 for lfn in inputs if lfn.startswith("raw_")) == 89
    assert len(inputs) == 90


def test_structure_levels():
    wf = montage_workflow(MontageConfig(n_images=9, name="m9"))
    levels = wf.levels()
    assert levels["mProjectPP_0"] == 0
    assert levels["mDiffFit_0000"] == 1
    assert levels["mConcatFit"] == 2
    assert levels["mBgModel"] == 3
    assert levels["mBackground_0"] == 4
    assert levels["mImgtbl"] == 5
    assert levels["mAdd"] == 6
    assert levels["mShrink"] == 7
    assert levels["mJPEG"] == 8


def test_small_config_overlaps():
    # 2x2 grid: overlaps = 2 horizontal + 2 vertical
    wf = montage_workflow(MontageConfig(n_images=4, name="m4"))
    assert wf.transform_counts()["mDiffFit"] == 4


def test_single_image_grid():
    wf = montage_workflow(MontageConfig(n_images=1, name="m1"))
    assert wf.transform_counts().get("mDiffFit", 0) == 0
    wf.validate()


def test_config_validation():
    with pytest.raises(ValueError):
        MontageConfig(n_images=0)
    with pytest.raises(ValueError):
        MontageConfig(image_size=0)


def test_augmented_adds_one_extra_per_projection():
    wf = augmented_montage(100 * MB)
    extras = [f for f in wf.input_files() if f.lfn.startswith(EXTRA_FILE_PREFIX)]
    assert len(extras) == 89
    assert all(f.size == 100 * MB for f in extras)
    # Each mProjectPP consumes exactly one extra file.
    for job_id, job in wf.jobs.items():
        n_extra = sum(1 for f in job.inputs if f.lfn.startswith(EXTRA_FILE_PREFIX))
        assert n_extra == (1 if job.transform == "mProjectPP" else 0)


def test_augmented_zero_size_is_plain_workflow():
    wf = augmented_montage(0)
    assert not [f for f in wf.input_files() if f.lfn.startswith(EXTRA_FILE_PREFIX)]
    assert wf.name == MontageConfig().name


def test_augmented_negative_rejected():
    with pytest.raises(ValueError):
        augmented_montage(-1)


@pytest.mark.parametrize("size", [float("nan"), float("inf")])
def test_augmented_non_finite_size_rejected(size):
    # NaN passed a `< 0` check and then died converting to an int
    with pytest.raises(ValueError, match="extra_file_size must be finite and >= 0"):
        augmented_montage(size)


def test_augmented_name_encodes_size():
    assert "100MB" in augmented_montage(100 * MB).name


def test_transform_catalog_covers_all_transforms():
    catalog = montage_transformations()
    wf = montage_workflow()
    for transform in wf.transform_counts():
        assert transform in catalog
    assert set(MONTAGE_RUNTIMES) == set(wf.transform_counts())


def test_mproject_runtime_is_several_seconds():
    """The paper: mProjectPP jobs run 'several seconds'."""
    mean, _std = MONTAGE_RUNTIMES["mProjectPP"]
    assert 2 <= mean <= 15
