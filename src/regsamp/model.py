"""Core data model: finite weighted instances, objective configuration, derived constants.

A distribution over data vectors is represented by a finite set of atoms
a_i in R^d with masses p_i summing to one.  The regularized objective is

    f(x) = sum_i p_i g(<a_i, x>) + R(x) / k

for a loss g, regularizer R in {l1, l2, l2sq} and strength parameter k >= 1.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import sampler as _sampler
from .errors import (
    DataError,
    DegenerateInstanceError,
    InvalidInputError,
    UnsupportedNormalizationError,
)
from .losses import L2SQ, LossSpec, RegSpec

MASS_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class Instance:
    atoms: np.ndarray   # (n, d) float64
    masses: np.ndarray  # (n,) float64, positive, sums to 1

    def __post_init__(self):
        atoms = np.asarray(self.atoms, dtype=float)
        masses = np.asarray(self.masses, dtype=float)
        if atoms.ndim != 2 or atoms.shape[0] == 0 or atoms.shape[1] == 0:
            raise InvalidInputError("atoms must be a nonempty (n, d) array")
        if masses.shape != (atoms.shape[0],):
            raise InvalidInputError("masses must have one entry per atom")
        if not np.all(np.isfinite(atoms)):
            raise InvalidInputError("atom coordinates must be finite")
        if not np.all(masses > 0):
            raise InvalidInputError("every mass must be positive")
        if abs(float(masses.sum()) - 1.0) > MASS_TOL:
            raise InvalidInputError("masses must sum to 1 within 1e-12")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "masses", masses)
        atoms.setflags(write=False)
        masses.setflags(write=False)

    @property
    def n(self) -> int:
        return self.atoms.shape[0]

    @property
    def dim(self) -> int:
        return self.atoms.shape[1]

    def norms(self) -> np.ndarray:
        return np.linalg.norm(self.atoms, axis=1)


@dataclass(frozen=True)
class ObjectiveSpec:
    loss: LossSpec
    reg: RegSpec
    k: float

    def __post_init__(self):
        if not (np.isfinite(self.k) and self.k >= 1.0):
            raise InvalidInputError("k must be a finite real >= 1")


@dataclass(frozen=True)
class Constants:
    L: float
    B: float
    S: float
    g0: float
    D: float | None = None


def make_instance(atoms, masses=None) -> Instance:
    """Build an Instance, defaulting to uniform masses and renormalizing exactly."""
    atoms = np.atleast_2d(np.asarray(atoms, dtype=float))
    n = atoms.shape[0]
    if masses is None:
        masses = np.full(n, 1.0 / n)
    else:
        masses = np.asarray(masses, dtype=float)
        if masses.shape != (n,):
            raise InvalidInputError("masses must have one entry per atom")
        total = float(masses.sum())
        if not np.isfinite(total) or total <= 0 or np.any(masses <= 0):
            raise InvalidInputError("masses must be positive with a positive finite sum")
        masses = masses / total
    return Instance(atoms, masses)


def gaussian_instance(n: int, dim: int, seed: int, scale: float = 1.0,
                      uniform_masses: bool = True) -> Instance:
    """Random instance with i.i.d. N(0, scale^2) atom coordinates."""
    rng = _sampler.derive_rng(seed)
    atoms = scale * rng.standard_normal((n, dim))
    if uniform_masses:
        return make_instance(atoms)
    masses = rng.dirichlet(np.ones(n))
    masses = np.maximum(masses, 1e-12)
    return make_instance(atoms, masses)


def fold_label(z, y) -> np.ndarray:
    """Fold a +-1 label into the data vector: returns y * z."""
    z = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(z)):
        raise InvalidInputError("data vector must be finite")
    if y not in (1, -1, 1.0, -1.0):
        raise InvalidInputError("label must be +1 or -1")
    return float(y) * z


def compute_constants(instance: Instance, score: str, loss: LossSpec) -> Constants:
    """Derived scalars: B (mean norm, squared for squared-norm scores), S, D, g(0), L."""
    norms = instance.norms()
    if score in (_sampler.SQNORM_PLUS_2, _sampler.UNIFORM_D2):
        b = float(instance.masses @ (norms ** 2))
    else:
        b = float(instance.masses @ norms)
    d_max = float(norms.max())
    s_vals = _sampler.score_array(score, instance.atoms, D=d_max)
    s_mass = float(instance.masses @ s_vals)
    return Constants(L=loss.lipschitz_formula, B=b, S=s_mass, g0=loss.g0, D=d_max)


def normalize_instance(instance: Instance, spec: ObjectiveSpec):
    """Rescale atoms by 1/B and fold L and B into k' = L*B*k.

    Valid for regularizers that scale sub-multiplicatively (l1, l2); a
    guarantee on the normalized pair implies one on the original pair.
    """
    if spec.reg.kind == L2SQ:
        raise UnsupportedNormalizationError("l2sq does not rescale sub-multiplicatively")
    norms = instance.norms()
    b = float(instance.masses @ norms)
    if b <= 0.0:
        raise DegenerateInstanceError("mean atom norm is zero; nothing to normalize")
    lip = spec.loss.lipschitz_formula
    scaled = Instance(instance.atoms / b, instance.masses)
    new_spec = ObjectiveSpec(loss=spec.loss, reg=spec.reg, k=lip * b * spec.k)
    return scaled, new_spec


def save_instance(instance: Instance, path) -> None:
    """Write JSON Lines: a {"dim", "n"} header, then one {"a", "p"} record per atom."""
    with open(path, "w") as fh:
        fh.write(json.dumps({"dim": instance.dim, "n": instance.n}) + "\n")
        for a, p in zip(instance.atoms, instance.masses):
            fh.write(json.dumps({"a": [float(v) for v in a], "p": float(p)}) + "\n")


def load_instance(path) -> Instance:
    """Read and validate the JSONL instance format written by save_instance."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise DataError(f"{path}: empty instance file")
    try:
        header = json.loads(lines[0])
        dim, n = int(header["dim"]), int(header["n"])
    except (json.JSONDecodeError, KeyError, TypeError, ValueError):
        raise DataError(f"{path}: line 1: malformed header") from None
    if len(lines) - 1 != n:
        raise DataError(f"{path}: header announces {n} atoms, found {len(lines) - 1}")
    atoms = np.empty((n, dim))
    masses = np.empty(n)
    for i, line in enumerate(lines[1:], start=2):
        try:
            rec = json.loads(line)
            vec = np.asarray(rec["a"], dtype=float)
            mass = float(rec["p"])
        except (json.JSONDecodeError, KeyError, TypeError, ValueError):
            raise DataError(f"{path}: line {i}: malformed atom record") from None
        if vec.shape != (dim,):
            raise DataError(f"{path}: line {i}: atom has dimension {vec.size}, expected {dim}")
        atoms[i - 2] = vec
        masses[i - 2] = mass
    try:
        return Instance(atoms, masses)
    except InvalidInputError as exc:
        raise DataError(f"{path}: {exc}") from None
