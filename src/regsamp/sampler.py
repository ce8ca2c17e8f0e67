"""Importance-sampling engine.

Scores s(a) are norm-based and at least 1.  Two sampling conventions are
implemented and named explicitly:

  * "mixture":   dQ = (s/2S + 1/2) dP, weights w = 2S/(s+S)  (so 0 < w <= 2)
  * "score-only": dQ = (s/S) dP,       weights w = S/s

The mixture convention is the default for guarantee verification; the
score-only convention is the one under which the linear-regime hard
instances state their failure predicates.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    BudgetExceededError,
    ConfigurationError,
    DataError,
    DegenerateInstanceError,
    InvalidInputError,
)

if TYPE_CHECKING:  # pragma: no cover
    from .model import Instance

NORM_PLUS_1 = "norm"          # s(a) = ||a||_2 + 1
SQNORM_PLUS_2 = "sqnorm"      # s(a) = ||a||_2^2 + 2
UNIFORM_D = "uniform-d"       # s(a) = D + 1 for all a
UNIFORM_D2 = "uniform-d2"     # s(a) = D^2 + 2 for all a

SCORE_KINDS = (NORM_PLUS_1, SQNORM_PLUS_2, UNIFORM_D, UNIFORM_D2)

MIXTURE = "mixture"
SCORE_ONLY = "score-only"
CONVENTIONS = (MIXTURE, SCORE_ONLY)

# most draws estimate_S makes: its index and score arrays then take 160 MB
MAX_S_DRAWS = 10_000_000
# cells of every working block, 512 KB of float64, which stays in cache: a block
# of count rows or of indices in `bench`, a block of atoms here
BLOCK_CELLS = 2 ** 16


def derive_rng(master_seed: int, *key: int) -> np.random.Generator:
    """SFC64 generator for stream `key` of a master seed.

    The stream is seeded by SeedSequence(seed, spawn_key=key), so distinct
    keys give independent streams, and streams are independent of
    scheduling: the same (seed, key) always yields the same draws,
    regardless of how many other streams exist.  SFC64 draws bounded
    integers faster than Philox, the generator before 0.18.0.  A negative
    seed raises InvalidInputError.
    """
    if int(master_seed) < 0:
        raise InvalidInputError(f"a seed must be a non-negative integer, got {master_seed}")
    ss = np.random.SeedSequence(entropy=int(master_seed), spawn_key=tuple(int(v) for v in key))
    return np.random.Generator(np.random.SFC64(ss))


def _row_norms(atoms: np.ndarray) -> np.ndarray:
    """The Euclidean norm of each row, over blocks of rows of at most BLOCK_CELLS cells.

    Every row gets the bits of one np.linalg.norm call over all rows, without
    that call's squared copy of the atoms.  A row whose plain norm overflows
    (past about 1.3e154) or falls below 2^-500, where its squares may
    underflow, is divided by a power of two 2^e that brings its largest entry
    into [1/2, 1), which is exact, and its norm is 2^e times the scaled one.
    """
    rows = max(1, BLOCK_CELLS // atoms.shape[1])
    out = np.empty(atoms.shape[0])
    for lo in range(0, atoms.shape[0], rows):
        block = atoms[lo:lo + rows]
        with np.errstate(over="ignore"):  # a norm past float range fails the law's sum check
            norms = np.linalg.norm(block, axis=1)
            odd = (norms < 2.0 ** -500) | np.isinf(norms)  # a zero row keeps its 0
            if np.any(odd):
                e = np.frexp(np.abs(block[odd]).max(axis=1))[1]
                norms[odd] = np.ldexp(np.linalg.norm(np.ldexp(block[odd], -e[:, None]), axis=1), e)
        out[lo:lo + rows] = norms
    return out


def _scores(kind: str, norms: Callable[[], np.ndarray], n: int,
            D: float | None = None) -> np.ndarray:
    """The n scores of `kind`; norms() gives the atoms' norms, which only the
    norm and sqnorm scores read."""
    if kind == NORM_PLUS_1:
        return norms() + 1.0
    if kind == SQNORM_PLUS_2:
        with np.errstate(over="ignore"):  # an infinite square fails the law's sum check
            return norms() ** 2 + 2.0
    if kind in (UNIFORM_D, UNIFORM_D2):
        if D is None:
            raise ConfigurationError(f"score kind {kind!r} requires the norm bound D")
        val = D + 1.0 if kind == UNIFORM_D else D * D + 2.0
        return np.full(n, val)
    raise ConfigurationError(f"unknown score kind {kind!r}")


def score_array(kind: str, atoms: np.ndarray, D: float | None = None) -> np.ndarray:
    atoms = np.atleast_2d(np.asarray(atoms, dtype=float))
    return _scores(kind, lambda: _row_norms(atoms), atoms.shape[0], D=D)


def importance_weights(s, ref, convention: str):
    """w = 2 ref/(s + ref) (mixture) or ref/s (score-only); ref is S or an estimate of it."""
    if convention == MIXTURE:
        return 2.0 * ref / (s + ref)
    if convention == SCORE_ONLY:
        return ref / s
    raise ConfigurationError(f"unknown sampling convention {convention!r}")


def weight(s: float, S: float) -> float:
    """Mixture importance weight w = 2S/(s+S); always in (0, 2]."""
    if not (s > 0 and S > 0):
        raise InvalidInputError("scores and score mass must be positive")
    return importance_weights(s, S, MIXTURE)


def _law(instance: "Instance", kind: str, convention: str,
         D: float | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(q, w, s) per atom: probabilities, weights and scores.

    The law reads the masses and, for the norm and sqnorm scores,
    `instance.norms()`, never the atoms; S = masses @ s.
    q_i = p_i (s_i + S)/(2S) under the mixture and p_i s_i / S under score-only;
    q must sum to 1 within 1e-12 (what index and multinomial draws need).
    """
    if convention not in CONVENTIONS:
        raise ConfigurationError(f"unknown sampling convention {convention!r}")
    masses = instance.masses
    s = _scores(kind, instance.norms, instance.n, D=D)
    with np.errstate(over="ignore", invalid="ignore"):  # overflowing scores fail the sum check
        S = float(masses @ s)
        q = masses * (s + S) / (S + S) if convention == MIXTURE else masses * s / S
    total = float(q.sum())
    if not abs(total - 1.0) <= 1e-12:  # NaN fails too
        raise DegenerateInstanceError(f"sampling probabilities sum to {total!r}, not 1")
    return q, importance_weights(s, S, convention), s


def atom_probabilities(instance: "Instance", kind: str, convention: str,
                       D: float | None = None) -> np.ndarray:
    """Per-atom sampling probability under the given convention."""
    return _law(instance, kind, convention, D=D)[0]


def atom_weights(instance: "Instance", kind: str, convention: str,
                 D: float | None = None) -> np.ndarray:
    """Per-atom importance weight under the given convention."""
    return _law(instance, kind, convention, D=D)[1]


class CategoricalSampler:
    """Inverse-CDF categorical sampler: O(n) build, O(log n) per draw."""

    def __init__(self, probs):
        probs = np.asarray(probs, dtype=float)
        if probs.ndim != 1 or probs.size == 0 or np.any(probs < 0):
            raise InvalidInputError("probabilities must be a nonempty nonnegative vector")
        total = float(probs.sum())
        if not np.isfinite(total) or total <= 0:
            raise InvalidInputError("probabilities must have a positive finite sum")
        self.n = probs.size
        self._cdf = np.cumsum(probs)
        # u * cdf[-1] can round up onto cdf[-1]; that draw goes to the last positive index
        self._last = int(np.flatnonzero(probs)[-1])

    def draw(self, rng: np.random.Generator, size: int, run: int | None = None) -> np.ndarray:
        """size draws from rng's next size uniforms.  With `run`, a divisor of size,
        each run of that many uniforms is sorted before the search, which then
        costs less: a run's draws come out in ascending order, the same multiset."""
        if run is not None and not (run >= 1 and size % run == 0):
            raise InvalidInputError(f"run must be a positive divisor of size {size}, got {run}")
        u = rng.random(size)
        if run is not None:
            runs = u.reshape(-1, run)  # a view of u
            runs.sort(axis=1)
        # a zero-probability index i has cdf[i] == cdf[i - 1], so no u lands on it;
        # u * cdf[-1] keeps the order of u, since rounding is monotone
        idx = np.searchsorted(self._cdf, u * self._cdf[-1], side="right")
        return np.minimum(idx, self._last).astype(np.int64, copy=False)


@dataclass(frozen=True, eq=False)
class Coreset:
    """A weighted sample as read-only columns, one row per draw.

    idx (m,) atom indices into the source instance, a (m, d) the drawn atoms,
    w (m,) importance weights, s (m,) scores; f0_hat(x) = mean_i w_i g(<a_i, x>).
    """

    idx: np.ndarray
    a: np.ndarray
    w: np.ndarray
    s: np.ndarray

    def __post_init__(self):
        for name, dtype in (("idx", np.int64), ("a", float), ("w", float), ("s", float)):
            col = np.asarray(getattr(self, name), dtype=dtype).view()
            col.setflags(write=False)  # a read-only view leaves the caller's array writable
            object.__setattr__(self, name, col)
        idx, a, w, s = self.idx, self.a, self.w, self.s
        if a.ndim != 2 or not idx.shape == w.shape == s.shape == a.shape[:1]:
            raise InvalidInputError("coreset columns must be idx (m,), a (m, d), w (m,), s (m,)")
        if idx.size == 0:
            raise InvalidInputError("sample must be nonempty")
        if not np.all(np.isfinite(w) & (w > 0)):
            raise InvalidInputError("sample weights must be positive and finite")

    @classmethod
    def of_atoms(cls, instance: "Instance", idx, kind: str, convention: str = MIXTURE,
                 D: float | None = None) -> "Coreset":
        """The draws idx of an instance, weighted and scored under (kind, convention)."""
        idx = np.asarray(idx, dtype=np.int64)
        _, w, s = _law(instance, kind, convention, D=D)
        return cls(idx, instance.atoms[idx], w[idx], s[idx])

    def __len__(self) -> int:
        return self.idx.shape[0]


@dataclass(frozen=True)
class SEstimate:
    s_hat: float
    m_used: int

    def __post_init__(self):
        if not self.s_hat > 0:
            raise InvalidInputError("estimated score mass must be positive")


def draw_iid(instance: "Instance", kind: str, m: int, seed: int,
             convention: str = MIXTURE, D: float | None = None) -> Coreset:
    """m i.i.d. categorical draws from the sampling distribution, with exact weights.

    Raises BudgetExceededError, before drawing, when the m drawn atoms would
    take more than `model.MAX_DENSE_CELLS` cells.
    """
    from .model import dense_budget  # model imports this module

    if m < 1:
        raise InvalidInputError("sample size m must be >= 1")
    dense_budget(m, instance.dim)
    q, w, s = _law(instance, kind, convention, D=D)
    idx = CategoricalSampler(q).draw(derive_rng(seed), m)
    return Coreset(idx, instance.atoms[idx], w[idx], s[idx])


def estimate_S(instance: "Instance", kind: str, eps: float, delta: float, seed: int) -> SEstimate:
    """Estimate S from i.i.d. mass-weighted draws, sized for a (1 +- eps) guarantee.

    Sample size m = ceil(D^p ln(1/delta) / eps^2) with p = 1 for norm
    scores and p = 2 for squared-norm scores; requires a bounded instance.
    Raises BudgetExceededError, before drawing, when m exceeds MAX_S_DRAWS.
    """
    if kind not in (NORM_PLUS_1, SQNORM_PLUS_2):
        raise ConfigurationError("S estimation is defined for the norm and sqnorm scores")
    if not (0 < eps and 0 < delta < 1):
        raise InvalidInputError("eps must be positive and delta in (0, 1)")
    d_max = float(instance.norms().max())
    d_p = d_max if kind == NORM_PLUS_1 else d_max * d_max  # inf past float range, where ** raises
    draws = d_p * math.log(1.0 / delta)  # times 1/eps^2, which may overflow
    if draws > MAX_S_DRAWS * eps * eps:
        raise BudgetExceededError(f"estimating S at D = {d_max:.6g}, eps = {eps:g} "
                                  f"needs more than {MAX_S_DRAWS} draws")
    m = max(1, math.ceil(draws / (eps * eps)))
    rng = derive_rng(seed)
    idx = CategoricalSampler(instance.masses).draw(rng, m)
    s = _scores(kind, instance.norms, instance.n)
    return SEstimate(s_hat=float(s[idx].mean()), m_used=m)


def weights_from_estimate(samples: Coreset, s_hat: float) -> Coreset:
    """Recompute mixture weights with an estimated score mass: w' = 2*s_hat/(s + s_hat)."""
    if not s_hat > 0:
        raise InvalidInputError("s_hat must be positive")
    return replace(samples, w=importance_weights(samples.s, s_hat, MIXTURE))


def save_samples(samples: Coreset, path) -> None:
    """One {"atom_index", "a", "w", "s"} JSONL record per drawn sample."""
    from .model import _write_records  # model imports this module

    _write_records(path, ({"atom_index": i, "a": a, "w": w, "s": s} for i, a, w, s in
                          zip(samples.idx.tolist(), samples.a.tolist(),
                              samples.w.tolist(), samples.s.tolist())))


def load_samples(path) -> Coreset:
    """Read save_samples's format: a JSON integer "atom_index", an "a" as long as
    the first record's, and "w" and "s" (see `model._read_records`)."""
    from .model import _read_lines, _read_records  # model imports this module

    lines = _read_lines(path)
    if not lines:
        raise DataError(f"{path}: empty sample file")
    a, (idx, w, s) = _read_records(path, lines, 1, "sample", "a", None,
                                   [("atom_index", int), ("w", float), ("s", float)])
    try:
        return Coreset(idx, a, w, s)
    except InvalidInputError as exc:
        raise DataError(f"{path}: {exc}") from None
