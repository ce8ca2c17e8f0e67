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

import heapq
import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .errors import (
    BudgetExceededError,
    ConfigurationError,
    DegenerateInstanceError,
    EstimatorInconsistencyError,
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


def derive_rng(master_seed: int, *key: int) -> np.random.Generator:
    """Counter-based generator for stream `key` of a master seed.

    Streams are independent of scheduling: the same (seed, key) always
    yields the same draws, regardless of how many other streams exist.
    """
    ss = np.random.SeedSequence(entropy=int(master_seed), spawn_key=tuple(int(v) for v in key))
    return np.random.Generator(np.random.Philox(ss))


def score_array(kind: str, atoms: np.ndarray, D: float | None = None) -> np.ndarray:
    atoms = np.atleast_2d(np.asarray(atoms, dtype=float))
    if kind == NORM_PLUS_1:
        return np.linalg.norm(atoms, axis=1) + 1.0
    if kind == SQNORM_PLUS_2:
        return np.einsum("ij,ij->i", atoms, atoms) + 2.0
    if kind in (UNIFORM_D, UNIFORM_D2):
        if D is None:
            raise ConfigurationError(f"score kind {kind!r} requires the norm bound D")
        val = D + 1.0 if kind == UNIFORM_D else D * D + 2.0
        return np.full(atoms.shape[0], val)
    raise ConfigurationError(f"unknown score kind {kind!r}")


def score(kind: str, a, D: float | None = None) -> float:
    """s(a); always >= 1."""
    return float(score_array(kind, np.asarray(a, dtype=float)[None, :], D=D)[0])


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


def _law(instance: "Instance", kind: str, convention: str, D: float | None = None,
         s_hat: float | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(q, w, s) per atom: probabilities, weights and scores, against S or (mixture) s_hat.

    q_i = p_i (s_i + ref)/(S + ref) under the mixture and p_i s_i / S under score-only;
    q must sum to 1 within 1e-12 (what index and multinomial draws need).
    """
    if convention not in CONVENTIONS:
        raise ConfigurationError(f"unknown sampling convention {convention!r}")
    if s_hat is not None and convention != MIXTURE:
        raise ConfigurationError("a score-mass estimate applies to the mixture convention only")
    with np.errstate(over="ignore", invalid="ignore"):  # overflowing scores fail the sum check
        s = score_array(kind, instance.atoms, D=D)
        S = float(instance.masses @ s)
        ref = S if s_hat is None else float(s_hat)
        q = instance.masses * (s + ref) / (S + ref) if convention == MIXTURE \
            else instance.masses * s / S
    total = float(q.sum())
    if not abs(total - 1.0) <= 1e-12:  # NaN fails too
        raise DegenerateInstanceError(f"sampling probabilities sum to {total!r}, not 1")
    return q, importance_weights(s, ref, convention), s


def atom_probabilities(instance: "Instance", kind: str, convention: str,
                       D: float | None = None, s_hat: float | None = None) -> np.ndarray:
    """Per-atom sampling probability; s_hat replaces S in the mixture."""
    return _law(instance, kind, convention, D=D, s_hat=s_hat)[0]


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

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        # a zero-probability index i has cdf[i] == cdf[i - 1], so no u lands on it
        idx = np.searchsorted(self._cdf, rng.random(size) * self._cdf[-1], side="right")
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
    eps: float
    delta: float

    def __post_init__(self):
        if not self.s_hat > 0:
            raise InvalidInputError("estimated score mass must be positive")


def draw_iid(instance: "Instance", kind: str, m: int, seed: int,
             convention: str = MIXTURE, D: float | None = None) -> Coreset:
    """m i.i.d. categorical draws from the sampling distribution, with exact weights."""
    if m < 1:
        raise InvalidInputError("sample size m must be >= 1")
    q, w, s = _law(instance, kind, convention, D=D)
    idx = CategoricalSampler(q).draw(derive_rng(seed), m)
    return Coreset(idx, instance.atoms[idx], w[idx], s[idx])


def rejection_stream(atoms: Iterable, kind: str, s_hat: float, seed: int,
                     D: float | None = None) -> list[np.ndarray]:
    """Accept each arriving atom independently with probability 1/2 + s(a)/(2*s_hat).

    With s_hat >= every observed score the acceptance probability stays in
    (0, 1]; the accepted multiset is distributed as the mixture built from
    s_hat in place of the true score mass.
    """
    if not s_hat > 0:
        raise InvalidInputError("s_hat must be positive")
    rng = derive_rng(seed)
    accepted = []
    for a in atoms:
        a = np.asarray(a, dtype=float)
        s = score(kind, a, D=D)
        p_accept = 0.5 + s / (2.0 * s_hat)
        if p_accept > 1.0 + 1e-12:
            raise EstimatorInconsistencyError(
                f"score {s} exceeds estimate {s_hat}: acceptance probability > 1")
        if rng.random() < p_accept:
            accepted.append(a)
    return accepted


def weighted_reservoir(stream: Iterable, m: int, seed: int) -> list:
    """Single-pass weighted reservoir sample of size m, probability proportional to score.

    Exponential-jumps scheme: keys u^(1/score) with skipping, so only O(m)
    random numbers are consumed in expectation per reservoir turnover.
    Keys are kept as logarithms, log(u)/score, so scores beyond 1e16 (where
    u^(1/score) rounds to 1) still work.  Stream items are (atom, score) pairs.
    """
    if m < 1:
        raise InvalidInputError("reservoir size m must be >= 1")
    rng = derive_rng(seed)
    heap: list = []  # (log key, counter, atom)
    counter = 0
    it = iter(stream)
    for atom, s in it:
        s = float(s)
        if s <= 0:
            raise InvalidInputError("scores must be positive")
        heapq.heappush(heap, (math.log(rng.random()) / s, counter, atom))
        counter += 1
        if counter == m:
            break
    if counter < m:
        return [item for _, _, item in sorted(heap, key=lambda t: t[1])]

    log_t = heap[0][0]
    jump = math.log(rng.random()) / log_t
    for atom, s in it:
        s = float(s)
        if s <= 0:
            raise InvalidInputError("scores must be positive")
        jump -= s
        if jump <= 0.0:
            t_pow = math.exp(log_t * s)
            key = math.log(t_pow + rng.random() * (1.0 - t_pow)) / s
            heapq.heapreplace(heap, (key, counter, atom))
            log_t = heap[0][0]
            jump = math.log(rng.random()) / log_t
        counter += 1
    return [item for _, _, item in sorted(heap, key=lambda t: t[1])]


def estimate_S(instance: "Instance", kind: str, eps: float, delta: float, seed: int) -> SEstimate:
    """Estimate S from i.i.d. mass-weighted draws, sized for a (1 +- eps) guarantee.

    Sample size m = ceil(D^p ln(1/delta) / eps^2) with p = 1 for norm
    scores and p = 2 for squared-norm scores; requires a bounded instance.
    Raises BudgetExceededError, before drawing, when m exceeds MAX_S_DRAWS.
    """
    if kind == NORM_PLUS_1:
        p = 1
    elif kind == SQNORM_PLUS_2:
        p = 2
    else:
        raise ConfigurationError("S estimation is defined for the norm and sqnorm scores")
    if not (0 < eps and 0 < delta < 1):
        raise InvalidInputError("eps must be positive and delta in (0, 1)")
    norms = instance.norms()
    d_max = float(norms.max())
    draws = (d_max ** p) * math.log(1.0 / delta)  # times 1/eps^2, which may overflow
    if draws > MAX_S_DRAWS * eps * eps:
        raise BudgetExceededError(f"estimating S at D = {d_max:.6g}, eps = {eps:g} "
                                  f"needs more than {MAX_S_DRAWS} draws")
    m = max(1, math.ceil(draws / (eps * eps)))
    rng = derive_rng(seed)
    idx = CategoricalSampler(instance.masses).draw(rng, m)
    s = score_array(kind, instance.atoms)
    return SEstimate(s_hat=float(s[idx].mean()), m_used=m, eps=eps, delta=delta)


def weights_from_estimate(samples: Coreset, s_hat: float) -> Coreset:
    """Recompute mixture weights with an estimated score mass: w' = 2*s_hat/(s + s_hat)."""
    if not s_hat > 0:
        raise InvalidInputError("s_hat must be positive")
    return replace(samples, w=importance_weights(samples.s, s_hat, MIXTURE))


def save_samples(samples: Coreset, path) -> None:
    """One JSONL record per drawn sample."""
    import json

    with open(path, "w") as fh:
        for i, a, w, s in zip(samples.idx.tolist(), samples.a.tolist(),
                              samples.w.tolist(), samples.s.tolist()):
            fh.write(json.dumps({"atom_index": i, "a": a, "w": w, "s": s}) + "\n")


def load_samples(path) -> Coreset:
    import json

    from .errors import DataError

    rows = []
    with open(path) as fh:
        for i, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                rows.append((int(rec["atom_index"]), [float(v) for v in rec["a"]],
                             float(rec["w"]), float(rec["s"])))
            except (json.JSONDecodeError, KeyError, TypeError, ValueError):
                raise DataError(f"{path}: line {i}: malformed sample record") from None
    if not rows:
        raise DataError(f"{path}: empty sample file")
    try:
        return Coreset(*zip(*rows))
    except (InvalidInputError, ValueError) as exc:
        raise DataError(f"{path}: {exc}") from None
