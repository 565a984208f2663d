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
import numbers
import os
import struct
from dataclasses import dataclass, replace

import numpy as np

from .prox import ProblemInstance, _check_cap, _check_positive

FAMILIES = ("normal", "poor", "largescale")

MAGIC = b"DALP"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sIQQd")

# Respectruming costs O(m^2 n + m^3), so the poor family stays at desk scale.
MAX_POOR_CONDITIONING_M = 2048


class DalpFormatError(ValueError):
    """Raised for malformed or truncated problem files."""


@dataclass(frozen=True)
class GenSpec:
    """Generation request; unset fields resolve to family defaults.

    ``normal`` and ``poor`` require m (n defaults to 4m); ``largescale``
    requires n (m defaults to 1024).  m, n and ``seed`` are integers.
    ``lam``, when given, is finite and positive; it defaults to 0.025 for
    ``normal``, 0.0003 for ``poor`` and 1.6/sqrt(n) for ``largescale``.
    """

    family: str
    m: int | None = None
    n: int | None = None
    density: float = 0.04
    noise_variance: float | None = None
    lam: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"family must be one of {FAMILIES}")
        if not 0 < self.density <= 1:
            raise ValueError("density must lie in (0, 1]")
        if self.noise_variance is not None and not (
            math.isfinite(self.noise_variance) and self.noise_variance >= 0
        ):
            raise ValueError(
                f"noise_variance must be finite and nonnegative, got {self.noise_variance}"
            )
        if not (isinstance(self.seed, numbers.Integral) and 0 <= self.seed < 2**64):
            raise ValueError(f"seed must lie in [0, 2**64) as an integer, got {self.seed!r}")
        if self.lam is not None:
            _check_positive("lam", self.lam)


# Each family's default for every unset field, as a function of n.
_FAMILY_DEFAULTS = {
    "normal": dict(noise_variance=lambda n: 1e-4, lam=lambda n: 0.025),
    "poor": dict(noise_variance=lambda n: 0.0, lam=lambda n: 0.0003),
    "largescale": dict(noise_variance=lambda n: 1e-4, lam=lambda n: 1.6 / math.sqrt(n)),
}


def resolve_spec(spec: GenSpec) -> GenSpec:
    """Fill in family defaults, producing a fully concrete spec."""
    m, n = spec.m, spec.n
    if spec.family in ("normal", "poor"):
        if m is None:
            raise ValueError(f"family {spec.family!r} requires m")
        if n is None:
            n = 4 * m
    else:
        if n is None:
            raise ValueError("family 'largescale' requires n")
        if m is None:
            m = 1024
    _check_cap("m", m)
    _check_cap("n", n)
    if spec.family == "poor" and m > MAX_POOR_CONDITIONING_M:
        raise ValueError(
            f"poor-conditioning generation costs O(m^2 n + m^3); "
            f"m is capped at {MAX_POOR_CONDITIONING_M}"
        )
    unset = {name: default(n) for name, default in _FAMILY_DEFAULTS[spec.family].items()
             if getattr(spec, name) is None}
    return replace(spec, m=m, n=n, **unset)


@dataclass(frozen=True)
class GeneratedProblem:
    """A generated instance plus the ground-truth coefficients behind it."""

    problem: ProblemInstance
    true_coeffs: np.ndarray
    seed: int | None


_KEY_BITS = 128  # Philox takes keys in [0, 2**_KEY_BITS)


def _check_key(seed: int) -> int:
    """``seed``, if it is a key :func:`_rng` accepts; else a ``ValueError``."""
    if not 0 <= seed < 2**_KEY_BITS:
        raise ValueError(f"seed must lie in [0, 2**{_KEY_BITS}), got {seed}")
    return seed


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
    _check_cap("m", m)
    _check_cap("n", n)
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
    With A the design, transposed if m > n, and (sigma_s^2, u_s) the
    eigenpairs of A A^T, largest first, it is U diag(1/(s sigma_s)) U^T A =
    U diag(1/s) V^T, to about eps * cond(A)^2.  A smallest eigenvalue not
    above min(m, n) * eps times the largest (a rank deficiency the eigensolve
    cannot resolve) or non-finite input raises ``numpy.linalg.LinAlgError``.
    """
    design = np.asarray(design, dtype=float)
    if not np.all(np.isfinite(design)):
        raise np.linalg.LinAlgError("design matrix contains non-finite entries")
    wide = design if design.shape[0] <= design.shape[1] else design.T
    k = wide.shape[0]
    evals, u = np.linalg.eigh(wide @ wide.T)  # ascending: evals[-1] is sigma_1^2
    if k and not evals[0] > k * np.finfo(float).eps * evals[-1]:
        raise np.linalg.LinAlgError("design matrix is rank-deficient")
    out = ((u / (np.arange(k, 0, -1) * np.sqrt(evals))) @ u.T) @ wide
    return out if wide is design else out.T


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
    problem = ProblemInstance(design=design, observations=observations, lam=spec.lam)
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
        # Read as the n x m row-major transpose: its .T is the column-major design.
        design = np.fromfile(fh, dtype="<f8", count=m * n).reshape((n, m)).T
        observations = np.fromfile(fh, dtype="<f8", count=m)
        coeffs = np.fromfile(fh, dtype="<f8", count=n)
    try:
        problem = ProblemInstance(design=design, observations=observations, lam=lam)
    except ValueError as exc:
        raise DalpFormatError(f"invalid header m={m} n={n} lambda={lam}: {exc}") from exc
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
