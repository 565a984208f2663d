"""Seeded synthetic problem generators and the problem-file container.

Three experiment families are supported:

* ``normal`` -- Gaussian design with entry variance 1/(2n) (largest singular
  value close to one), n = 4m, observation noise variance 1e-4, lam = 0.025.
* ``poor`` -- same design but with its singular values replaced by the
  power-law sequence 1/s, giving condition number min(m, n); noise-free,
  lam = 0.0003.
* ``largescale`` -- m fixed at 1024 while n grows; lam = 1.6/sqrt(n).

The true coefficient vector fills round(density*n) positions (default 4%)
with +/-1 and the observations are b = A w0 + noise.  All randomness comes
from a single counter-based Philox stream keyed by the 64-bit seed, consumed
in a fixed order: design entries (column-major), support indices, signs,
noise.  Generation is therefore a pure function of the spec.

Problem files use a little-endian binary container:

    magic "DALP" | version u32 | m u64 | n u64 | lambda f64
    | design f64 column-major (m*n) | observations f64 (m)
    | true coefficients f64 (n)
"""

from __future__ import annotations

import csv
import math
import os
import struct
from dataclasses import dataclass, replace

import numpy as np

from .prox import ProblemInstance

FAMILIES = ("normal", "poor", "largescale")

MAGIC = b"DALP"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sIQQd")

# SVD-based respectruming is only allowed at desk scale.
MAX_POOR_CONDITIONING_M = 2048


class DalpFormatError(ValueError):
    """Raised for malformed or truncated problem files."""


@dataclass(frozen=True)
class LambdaRule:
    """Regularization rule: a fixed value or coefficient/sqrt(n)."""

    kind: str  # "fixed" | "inv-sqrt-n"
    value: float

    def __post_init__(self):
        if self.kind not in ("fixed", "inv-sqrt-n"):
            raise ValueError(f"unknown lambda rule kind {self.kind!r}")
        if not self.value > 0:
            raise ValueError("lambda rule value must be positive")

    def resolve(self, n: int) -> float:
        if self.kind == "fixed":
            return self.value
        return self.value / math.sqrt(n)


@dataclass(frozen=True)
class GenSpec:
    """Generation request; unset fields resolve to family defaults.

    ``normal`` and ``poor`` require m (n defaults to 4m); ``largescale``
    requires n (m defaults to 1024).
    """

    family: str
    m: int | None = None
    n: int | None = None
    density: float = 0.04
    noise_variance: float | None = None
    lambda_rule: LambdaRule | None = None
    seed: int = 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"family must be one of {FAMILIES}")
        if not 0 < self.density <= 1:
            raise ValueError("density must lie in (0, 1]")
        if self.noise_variance is not None and self.noise_variance < 0:
            raise ValueError("noise_variance must be nonnegative")


_FAMILY_DEFAULTS = {
    "normal": dict(noise_variance=1e-4, lambda_rule=LambdaRule("fixed", 0.025)),
    "poor": dict(noise_variance=0.0, lambda_rule=LambdaRule("fixed", 0.0003)),
    "largescale": dict(noise_variance=1e-4, lambda_rule=LambdaRule("inv-sqrt-n", 1.6)),
}


def resolve_spec(spec: GenSpec) -> GenSpec:
    """Fill in family defaults, producing a fully concrete spec."""
    defaults = _FAMILY_DEFAULTS[spec.family]
    m, n = spec.m, spec.n
    if spec.family in ("normal", "poor"):
        if m is None:
            raise ValueError(f"family {spec.family!r} requires m")
        if n is None:
            n = 4 * m
        if spec.family == "poor" and m > MAX_POOR_CONDITIONING_M:
            raise ValueError(
                f"poor-conditioning generation needs a full SVD; "
                f"m is capped at {MAX_POOR_CONDITIONING_M}"
            )
    else:
        if n is None:
            raise ValueError("family 'largescale' requires n")
        if m is None:
            m = 1024
    if m < 1 or n < 1:
        raise ValueError("m and n must be positive")
    noise = spec.noise_variance
    if noise is None:
        noise = defaults["noise_variance"]
    rule = spec.lambda_rule
    if rule is None:
        rule = defaults["lambda_rule"]
    return replace(spec, m=m, n=n, noise_variance=noise, lambda_rule=rule)


@dataclass(frozen=True)
class GeneratedProblem:
    """A generated instance plus the ground-truth coefficients behind it."""

    problem: ProblemInstance
    true_coeffs: np.ndarray
    seed: int | None


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


def _gaussian_design(rng, m: int, n: int) -> np.ndarray:
    # Column-major fill: the first m draws form column 0, and so on.  The
    # 1-D draw is reshaped as a view, keeping peak memory at one copy.
    vals = rng.standard_normal(m * n)
    vals *= math.sqrt(1.0 / (2.0 * n))
    return vals.reshape((m, n), order="F")


def gen_gaussian_design(m: int, n: int, seed: int) -> np.ndarray:
    """m x n matrix of i.i.d. zero-mean Gaussians with variance 1/(2n)."""
    if m < 1 or n < 1:
        raise ValueError("m and n must be positive")
    return _gaussian_design(_rng(seed), m, n)


def _sparse_coeffs(rng, n: int, density: float) -> np.ndarray:
    k = round(density * n)
    coeffs = np.zeros(n)
    if k > 0:
        support = rng.choice(n, size=k, replace=False)
        signs = rng.integers(0, 2, size=k) * 2.0 - 1.0
        coeffs[support] = signs
    return coeffs


def gen_sparse_coeffs(n: int, density: float, seed: int) -> np.ndarray:
    """Length-n vector with round(density*n) entries of +/-1, rest exactly zero."""
    if not 0 < density <= 1:
        raise ValueError("density must lie in (0, 1]")
    return _sparse_coeffs(_rng(seed), n, density)


def impose_power_law_spectrum(design: np.ndarray) -> np.ndarray:
    """Replace the singular values of ``design`` by 1/s for s = 1, 2, ...

    The result has largest singular value 1 and condition number min(m, n).
    Non-finite input surfaces as ``numpy.linalg.LinAlgError`` from the SVD.
    """
    design = np.asarray(design, dtype=float)
    if not np.all(np.isfinite(design)):
        raise np.linalg.LinAlgError("design matrix contains non-finite entries")
    u, _, vt = np.linalg.svd(design, full_matrices=False)
    s = 1.0 / np.arange(1, min(design.shape) + 1)
    return (u * s) @ vt


def generate(spec: GenSpec) -> GeneratedProblem:
    """Produce the instance described by ``spec`` (after family resolution)."""
    spec = resolve_spec(spec)
    rng = _rng(spec.seed)
    design = _gaussian_design(rng, spec.m, spec.n)
    if spec.family == "poor":
        # Fortran order up front so b is computed from the exact matrix the
        # problem stores (keeps the noise-free residual bitwise zero).
        design = np.asfortranarray(impose_power_law_spectrum(design))
    w0 = _sparse_coeffs(rng, spec.n, spec.density)
    noise = rng.standard_normal(spec.m) * math.sqrt(spec.noise_variance)
    observations = design @ w0 + noise
    lam = spec.lambda_rule.resolve(spec.n)
    problem = ProblemInstance(design=design, observations=observations, lam=lam)
    return GeneratedProblem(problem=problem, true_coeffs=w0, seed=spec.seed)


def save_problem(path, generated: GeneratedProblem) -> None:
    """Write a problem to the binary container format."""
    p = generated.problem
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, FORMAT_VERSION, p.m, p.n, p.lam))
        # The transpose of a column-major design is row-major over the same
        # memory, so tofile writes it column by column without a copy.
        np.asfortranarray(p.design, dtype="<f8").T.tofile(fh)
        np.asarray(p.observations, dtype="<f8").tofile(fh)
        np.asarray(generated.true_coeffs, dtype="<f8").tofile(fh)


def load_problem(path) -> GeneratedProblem:
    """Read a problem container; raises :class:`DalpFormatError` on bad files.

    The seed is not stored in the container, so the loaded problem carries
    ``seed=None``.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise DalpFormatError("file too short for header")
        magic, version, m, n, lam = _HEADER.unpack(header)
        if magic != MAGIC:
            raise DalpFormatError(f"bad magic bytes {magic!r}")
        if version != FORMAT_VERSION:
            raise DalpFormatError(f"unsupported container version {version}")
        # Checked before reading, so a corrupt header cannot size an allocation.
        expected = _HEADER.size + 8 * (m * n + m + n)
        if size != expected:
            raise DalpFormatError(
                f"file length {size} does not match header (expected {expected})"
            )
        if not lam > 0:
            raise DalpFormatError(f"non-positive lambda {lam}")
        # Read as the n x m row-major transpose: its .T is the column-major design.
        design = np.fromfile(fh, dtype="<f8", count=m * n).reshape((n, m)).T
        observations = np.fromfile(fh, dtype="<f8", count=m)
        coeffs = np.fromfile(fh, dtype="<f8", count=n)
    problem = ProblemInstance(design=design, observations=observations, lam=lam)
    return GeneratedProblem(problem=problem, true_coeffs=coeffs, seed=None)


def export_problem_csv(path, generated: GeneratedProblem) -> None:
    """Write a long-format CSV (kind, i, j, value) for small instances.

    Rows: one ``meta`` row carrying (m, n, lambda), then every design entry
    as kind="A" with its row/column, observations as kind="b", and true
    coefficients as kind="w0".
    """
    p = generated.problem
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["kind", "i", "j", "value"])
        writer.writerow(["meta", p.m, p.n, repr(p.lam)])
        for j in range(p.n):
            for i in range(p.m):
                writer.writerow(["A", i, j, repr(float(p.design[i, j]))])
        for i in range(p.m):
            writer.writerow(["b", i, "", repr(float(p.observations[i]))])
        for j in range(p.n):
            writer.writerow(["w0", "", j, repr(float(generated.true_coeffs[j]))])
