"""Small workflow shapes the tests build plans and priorities on."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.workflow.dag import File, Job, Workflow

MB = 1_000_000


def chain_workflow(length: int = 4, file_size: float = 1 * MB, name: str = "chain") -> Workflow:
    """A linear pipeline: job_0 -> job_1 -> ... -> job_{n-1}."""
    if length < 1:
        raise ValueError("length must be >= 1")
    wf = Workflow(name)
    prev_out = File("chain_input.dat", file_size)
    for i in range(length):
        out = File(f"chain_stage_{i}.dat", file_size)
        wf.add_job(
            Job(id=f"stage_{i}", transform="process", inputs=(prev_out,), outputs=(out,))
        )
        prev_out = out
    wf.validate()
    return wf


def diamond_workflow(file_size: float = 1 * MB, name: str = "diamond") -> Workflow:
    """The classic 4-job diamond: split -> (left, right) -> join."""
    wf = Workflow(name)
    src = File("diamond_input.dat", file_size)
    left_in = File("left_in.dat", file_size)
    right_in = File("right_in.dat", file_size)
    left_out = File("left_out.dat", file_size)
    right_out = File("right_out.dat", file_size)
    final = File("diamond_output.dat", file_size)
    wf.add_job(Job("split", "split", inputs=(src,), outputs=(left_in, right_in)))
    wf.add_job(Job("left", "process", inputs=(left_in,), outputs=(left_out,)))
    wf.add_job(Job("right", "process", inputs=(right_in,), outputs=(right_out,)))
    wf.add_job(Job("join", "join", inputs=(left_out, right_out), outputs=(final,)))
    wf.validate()
    return wf


def fork_join_workflow(
    width: int = 8, file_size: float = 1 * MB, name: str = "fork-join"
) -> Workflow:
    """One fan-out job feeding ``width`` parallel workers and a join."""
    if width < 1:
        raise ValueError("width must be >= 1")
    wf = Workflow(name)
    src = File("fj_input.dat", file_size)
    branch_ins = [File(f"fj_branch_in_{i}.dat", file_size) for i in range(width)]
    branch_outs = [File(f"fj_branch_out_{i}.dat", file_size) for i in range(width)]
    final = File("fj_output.dat", file_size)
    wf.add_job(Job("fork", "split", inputs=(src,), outputs=tuple(branch_ins)))
    for i in range(width):
        wf.add_job(
            Job(f"work_{i}", "process", inputs=(branch_ins[i],), outputs=(branch_outs[i],))
        )
    wf.add_job(Job("join", "join", inputs=tuple(branch_outs), outputs=(final,)))
    wf.validate()
    return wf


def random_layered_workflow(
    layers: int = 4,
    width: int = 6,
    edge_prob: float = 0.4,
    file_size: float = 1 * MB,
    rng: Optional[np.random.Generator] = None,
    name: str = "layered",
) -> Workflow:
    """A random layered DAG: each job consumes a random subset of the
    previous layer's outputs (at least one, so layers stay connected).

    Every layer-0 job reads its own external input file, exercising the
    planner's stage-in path on arbitrary shapes.
    """
    if layers < 1 or width < 1:
        raise ValueError("layers and width must be >= 1")
    if not 0 <= edge_prob <= 1:
        raise ValueError("edge_prob must be in [0, 1]")
    rng = rng or np.random.default_rng(0)
    wf = Workflow(name)
    prev_outputs: list[File] = []
    for layer in range(layers):
        outputs_this_layer: list[File] = []
        for w in range(width):
            out = File(f"l{layer}_j{w}_out.dat", file_size)
            outputs_this_layer.append(out)
            if layer == 0:
                inputs: tuple[File, ...] = (File(f"l0_j{w}_in.dat", file_size),)
            else:
                mask = rng.random(len(prev_outputs)) < edge_prob
                chosen = [f for f, m in zip(prev_outputs, mask) if m]
                if not chosen:
                    chosen = [prev_outputs[int(rng.integers(len(prev_outputs)))]]
                inputs = tuple(chosen)
            wf.add_job(
                Job(f"l{layer}_j{w}", transform="process", inputs=inputs, outputs=(out,))
            )
        prev_outputs = outputs_this_layer
    wf.validate()
    return wf
