"""Transformation catalog: executables and runtime models.

Compute-job durations are sampled from per-transformation truncated normal
distributions (matching how published Montage profiles report mean/std-dev
runtimes).  Sampling is deterministic given the caller's RNG stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["RuntimeModel", "TransformationCatalog"]


@dataclass(frozen=True)
class RuntimeModel:
    """Runtime distribution of one transformation.

    ``sample`` draws a truncated-at-``min_runtime`` normal variate.
    """

    name: str
    mean: float
    std: float = 0.0
    min_runtime: float = 0.05

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("transformation requires a name")
        if self.mean < 0 or self.std < 0 or self.min_runtime < 0:
            raise ValueError(f"transformation {self.name!r}: negative parameter")

    def sample(self, rng: np.random.Generator) -> float:
        value = rng.normal(self.mean, self.std) if self.std > 0 else self.mean
        return max(self.min_runtime, float(value))


class TransformationCatalog:
    """Registry of :class:`RuntimeModel` keyed by transformation name."""

    def __init__(self) -> None:
        self._transforms: dict[str, RuntimeModel] = {}

    def add(self, name: str, mean: float, std: float = 0.0, min_runtime: float = 0.05) -> RuntimeModel:
        if name in self._transforms:
            raise ValueError(f"duplicate transformation {name!r}")
        model = RuntimeModel(name, mean, std, min_runtime)
        self._transforms[name] = model
        return model

    def get(self, name: str) -> RuntimeModel:
        try:
            return self._transforms[name]
        except KeyError:
            raise KeyError(f"unknown transformation {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._transforms
