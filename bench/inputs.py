"""Seeded inputs for the benchmark, and the oracles that do not use innerlab.

Every model file, base point and radius the workloads pass to the CLI is
derived here from the benchmark seed alone, with numpy's PCG64 generator,
so the same seed gives byte-identical files on every commit.  Nothing here
calls into innerlab: the inputs must not move when the program under test
changes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Degrees of the eight seeded models used by `loops` and `quad`.
MODEL_DEGREES = (2, 3, 3, 4, 4, 5, 6, 6)
# Zeros are drawn uniformly from the disk of this radius (as in the test
# suite's random centered Blaschke products).
ZERO_RADIUS = 0.9
ATOM_WEIGHT = 0.7

# Fixed models, written in the model-file format (same text as the demos).
DEG2_TEXT = "rotation=1,0\nzero=0,0\nzero=0.5,0\n"
SQUARE_TEXT = "rotation=1,0\nzero=0,0\nzero=0,0\n"
ZMINUS_TEXT = "beta=0\natom=0,1\n"
ATOM_TEXT = f"rotation=1,0\natom=0,{ATOM_WEIGHT!r}\n"


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def model_text(rotation: complex, zeros) -> str:
    lines = [f"rotation={_fmt(rotation.real)},{_fmt(rotation.imag)}"]
    lines += [f"zero={_fmt(a.real)},{_fmt(a.imag)}" for a in zeros]
    return "\n".join(lines) + "\n"


def chi_oracle(zeros, n: int = 1 << 14) -> float:
    """(1/2pi) int log |F'(e^{it})| dt for a finite Blaschke product with
    these zeros, by the periodic trapezoid rule on the angular-derivative
    sum sum (1-|a|^2)/|e^{it}-a|^2 (spectrally accurate: the integrand is
    analytic on the circle)."""
    a = np.asarray(zeros, dtype=complex)[:, None]
    zeta = np.exp(2j * np.pi * np.arange(n) / n)[None, :]
    dsum = np.sum((1.0 - np.abs(a) ** 2) / np.abs(zeta - a) ** 2, axis=0)
    return float(np.mean(np.log(dsum)))


def log_boundary_derivative(zeros, angle: float) -> float:
    """log |F'(e^{i angle})| from the same angular-derivative sum."""
    a = np.asarray(zeros, dtype=complex)
    zeta = complex(math.cos(angle), math.sin(angle))
    return math.log(float(np.sum((1.0 - np.abs(a) ** 2) / np.abs(zeta - a) ** 2)))


def _random_centered(rng, degree: int):
    zeros = [0j]
    while len(zeros) < degree:
        w = complex(rng.uniform(-ZERO_RADIUS, ZERO_RADIUS),
                    rng.uniform(-ZERO_RADIUS, ZERO_RADIUS))
        if abs(w) < ZERO_RADIUS:
            zeros.append(w)
    rotation = complex(np.exp(2j * np.pi * rng.uniform()))
    return rotation, tuple(zeros)


@dataclass(frozen=True)
class SeededModel:
    name: str
    rotation: complex
    zeros: tuple

    @property
    def text(self) -> str:
        return model_text(self.rotation, self.zeros)


@dataclass(frozen=True)
class Inputs:
    """Everything the workloads hand to the program."""

    models: tuple            # the eight SeededModel of MODEL_DEGREES
    count_model: SeededModel  # the seeded degree-6 model for `count`
    count_z: complex
    count_R: float

    def files(self) -> dict:
        """File name -> text of every model file the workloads read."""
        out = {"deg2.inner": DEG2_TEXT, "square.inner": SQUARE_TEXT,
               "zminus.hp": ZMINUS_TEXT, "atom.inner": ATOM_TEXT,
               f"{self.count_model.name}.inner": self.count_model.text}
        for m in self.models:
            out[f"{m.name}.inner"] = m.text
        return out

    def write(self, directory: Path) -> None:
        for name, text in self.files().items():
            (directory / name).write_text(text)


def make_inputs(seed: int, count_target: int) -> Inputs:
    """The inputs for `seed`.  The seeded degree-6 `count` gets the radius R
    at which its expected count e^R log(1/|z|) / (2 chi) is `count_target`."""
    rng = np.random.default_rng(seed)
    models = tuple(SeededModel(f"m{i}_d{d}", *_random_centered(rng, d))
                   for i, d in enumerate(MODEL_DEGREES))
    count_model = SeededModel("count_d6", *_random_centered(rng, 6))
    w = rng.uniform(0.2, 0.6) * np.exp(2j * np.pi * rng.uniform())
    z = complex(round(w.real, 6), round(w.imag, 6))
    chi = chi_oracle(count_model.zeros)
    R = round(math.log(2.0 * count_target * chi / math.log(1.0 / abs(z))), 2)
    return Inputs(models, count_model, z, R)
