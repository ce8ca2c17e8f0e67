"""Monte Carlo harness: failure rates, minimal sample sizes, scaling curves.

Trials are independent streams of a counter-based generator keyed by
(master_seed, m, trial), so results do not depend on probing order, and
aggregation is order-independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetExceededError, ConfigurationError, InvalidInputError
from .hardness import HardInstance, batch_failed, generate, kind_params
from .losses import eval_loss
from .model import Instance, ObjectiveSpec
from .objective import QuerySet, build_query_set, evaluate
from .sampler import (
    MIXTURE,
    CategoricalSampler,
    atom_probabilities,
    atom_weights,
    derive_rng,
)

ADVERSARIAL_ONLY = "adversarial-only"
ADVERSARIAL_PLUS_RANDOM = "adversarial-plus-random"

DEFAULT_TRIALS = 200
DEFAULT_M_CAP = 2_000_000


@dataclass(frozen=True, eq=False)
class TrialConfig:
    eps: float
    delta: float
    trials: int = DEFAULT_TRIALS
    master_seed: int = 0
    hard: HardInstance | None = None
    instance: Instance | None = None
    spec: ObjectiveSpec | None = None
    queries: QuerySet | None = None
    score_kind: str | None = None
    convention: str | None = None
    query_policy: str = ADVERSARIAL_ONLY
    m_cap: int = DEFAULT_M_CAP

    def __post_init__(self):
        if not (0 < self.eps < 1 and 0 < self.delta < 1):
            raise InvalidInputError("eps and delta must lie in (0, 1)")
        if self.trials < 1:
            raise InvalidInputError("trials must be >= 1")
        if self.query_policy not in (ADVERSARIAL_ONLY, ADVERSARIAL_PLUS_RANDOM):
            raise InvalidInputError(f"unknown query policy {self.query_policy!r}")
        if self.hard is None and (self.instance is None or self.spec is None
                                  or self.queries is None):
            raise ConfigurationError(
                "plain configs need an instance, an objective spec, and queries")

    @property
    def target_instance(self) -> Instance:
        return self.hard.instance if self.hard is not None else self.instance

    @property
    def sampling(self) -> tuple[str, str]:
        if self.hard is not None:
            return (self.score_kind or self.hard.score_kind,
                    self.convention or self.hard.convention)
        return (self.score_kind or "norm", self.convention or MIXTURE)


@dataclass(frozen=True)
class ScalingCurve:
    points: tuple[tuple[float, int], ...]
    fitted_slope: float
    slope_ci: tuple[float, float]
    budget_errors: tuple[tuple[float, str], ...] = field(default=())


@dataclass(frozen=True)
class FellerResult:
    empirical: float
    bound: float
    fitted_c: float
    advisories: tuple[str, ...] = field(default=())


def wilson_interval(failures: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise InvalidInputError("trials must be >= 1")
    p = failures / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2.0 * trials)) / denom
    half = z * math.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def _draw_counts(q: np.ndarray, w: np.ndarray, m: int, trials: int,
                 master_seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-trial sample counts and mean weights, one derived stream per trial."""
    n = q.size
    alias = CategoricalSampler(q)
    counts = np.empty((trials, n), dtype=np.int64)
    mean_w = np.empty(trials)
    for t in range(trials):
        rng = derive_rng(master_seed, m, t)
        idx = alias.draw(rng, m)
        counts[t] = np.bincount(idx, minlength=n)
        mean_w[t] = w[idx].mean()
    return counts, mean_w


def _generic_query_failures(instance: Instance, spec: ObjectiveSpec, queries: QuerySet,
                            w: np.ndarray, counts: np.ndarray, m: int,
                            eps: float) -> np.ndarray:
    """Failure indicator per trial: any query with relative error above eps."""
    # row 0 is the full objective f0, rows 1.. the per-trial coreset objectives
    f0, reg = evaluate(instance.atoms, np.vstack([instance.masses, counts * w / m]),
                       spec, queries.queries)
    f = f0[0] + reg
    valid = f > 0.0
    if not np.any(valid):
        return np.zeros(counts.shape[0], dtype=bool)
    err = np.abs(f0[0, valid] - f0[1:, valid]) / f[valid]
    return np.any(err > eps, axis=1)


def failure_rate(cfg: TrialConfig, m: int) -> tuple[float, tuple[float, float]]:
    """Empirical failure probability at sample size m, with a Wilson 95% CI."""
    if m < 1:
        raise InvalidInputError("sample size m must be >= 1")
    kind, convention = cfg.sampling
    inst = cfg.target_instance
    q = atom_probabilities(inst, kind, convention)
    w = atom_weights(inst, kind, convention)
    counts, mean_w = _draw_counts(q, w, m, cfg.trials, cfg.master_seed)
    if cfg.hard is not None:
        failed = batch_failed(cfg.hard, counts, mean_w, m, cfg.eps)
        if cfg.query_policy == ADVERSARIAL_PLUS_RANDOM:
            extra = build_query_set(inst.dim, cfg.hard.spec.k,
                                    seed=cfg.master_seed, n_gaussian=20, n_sparse=20)
            failed = failed | _generic_query_failures(
                inst, cfg.hard.spec, extra, w, counts, m, cfg.eps)
    else:
        failed = _generic_query_failures(inst, cfg.spec, cfg.queries, w, counts,
                                         m, cfg.eps)
    k_fail = int(failed.sum())
    return k_fail / cfg.trials, wilson_interval(k_fail, cfg.trials)


def min_sample_size(cfg: TrialConfig, delta: float | None = None) -> int:
    """Smallest tested m whose Wilson upper bound on the failure rate is <= delta.

    Doubling search followed by binary search; an m is accepted only if the
    bound also holds at 2m (guards non-monotone noise).  Exceeding the
    configured m cap raises a budget error carrying the partial rate table.
    """
    delta = cfg.delta if delta is None else delta
    rates: dict[int, float] = {}

    def upper(m: int) -> float:
        if m not in rates:
            rate, (_, hi) = failure_rate(cfg, m)
            rates[m] = hi
        return rates[m]

    def accept(m: int) -> bool:
        return upper(m) <= delta and upper(2 * m) <= delta

    m = 1
    while not accept(m):
        m *= 2
        if m > cfg.m_cap:
            raise BudgetExceededError(
                f"no accepted sample size below the cap {cfg.m_cap}", partial=rates)
    lo, hi = m // 2 + 1, m
    while lo < hi:
        mid = (lo + hi) // 2
        if accept(mid):
            hi = mid
        else:
            lo = mid + 1
    return hi


def fit_loglog_slope(ks, ms) -> float:
    ks = np.asarray(ks, dtype=float)
    ms = np.asarray(ms, dtype=float)
    if ks.size < 2 or np.unique(ks).size < 2:
        raise InvalidInputError("need at least two distinct k values to fit a slope")
    return float(np.polyfit(np.log(ks), np.log(ms), 1)[0])


def _bootstrap_slope_ci(points, seed: int, resamples: int = 200) -> tuple[float, float]:
    ks = np.array([p[0] for p in points], dtype=float)
    ms = np.array([p[1] for p in points], dtype=float)
    rng = derive_rng(seed, 0xB007)
    slopes = []
    for _ in range(resamples):
        idx = rng.integers(0, ks.size, size=ks.size)
        if np.unique(ks[idx]).size < 2:
            continue
        slopes.append(fit_loglog_slope(ks[idx], ms[idx]))
    if not slopes:
        return (float("nan"), float("nan"))
    return (float(np.percentile(slopes, 2.5)), float(np.percentile(slopes, 97.5)))


def scaling_curve(kind: str, k_list, eps: float, delta: float,
                  trials: int = DEFAULT_TRIALS, seed: int = 0,
                  reg: str | None = None, m_cap: int = DEFAULT_M_CAP) -> ScalingCurve:
    """Minimal sample size per k and the least-squares log-log slope.

    Kinds whose generator takes eps (the quadratic constructions) are sized
    for the curve's eps.  Every k is generated before any is solved, so a bad
    parameter fails the whole curve at once.  The slope CI is a 200-resample
    case bootstrap.  Budget failures are recorded per k instead of aborting
    the curve.
    """
    k_list = sorted(float(k) for k in k_list)
    if len(k_list) < 3:
        raise InvalidInputError("need at least three k values")
    params = {"eps": eps} if "eps" in kind_params(kind) else {}
    if reg is not None:
        params["reg"] = reg
    hards = [generate(kind, k=k, **params) for k in k_list]

    def solve(k: float, hard: HardInstance):
        cfg = TrialConfig(eps=eps, delta=delta, trials=trials,
                          master_seed=int(derive_rng(seed, int(k)).integers(2 ** 62)),
                          hard=hard, m_cap=m_cap)
        try:
            return k, min_sample_size(cfg), None
        except BudgetExceededError as exc:
            return k, None, str(exc)

    results = [solve(k, hard) for k, hard in zip(k_list, hards)]
    points = tuple((k, m) for k, m, err in results if err is None)
    errors = tuple((k, err) for k, _, err in results if err is not None)
    if len(points) >= 2:
        slope = fit_loglog_slope([p[0] for p in points], [p[1] for p in points])
        ci = _bootstrap_slope_ci(points, seed)
    else:
        slope, ci = float("nan"), (float("nan"), float("nan"))
    return ScalingCurve(points=points, fitted_slope=slope, slope_ci=ci,
                        budget_errors=errors)


def feller_check(q: float, m: int, t: float, trials: int, seed: int) -> FellerResult:
    """Empirical binomial upper-tail mass P[Z >= mq + t] vs exp(-t^2 / 3 sigma^2).

    The anti-concentration hypothesis wants sigma >= 200 and t <= sigma^2/100;
    desk-scale runs outside that range are flagged as advisory.
    """
    if not (0 < q < 1 and m >= 1 and trials >= 1):
        raise InvalidInputError("need q in (0,1), m >= 1, trials >= 1")
    sigma2 = m * q * (1.0 - q)
    sigma = math.sqrt(sigma2)
    advisories = []
    if sigma < 200.0:
        advisories.append(f"sigma = {sigma:.1f} < 200: advisory only")
    if t > sigma2 / 100.0:
        advisories.append(f"t = {t:.3g} exceeds sigma^2/100 = {sigma2 / 100.0:.3g}")
    rng = derive_rng(seed)
    z = rng.binomial(m, q, size=trials)
    empirical = float(np.mean(z >= m * q + t))
    bound = math.exp(-t * t / (3.0 * sigma2))
    fitted_c = empirical / bound if bound > 0 else float("inf")
    return FellerResult(empirical=empirical, bound=bound, fitted_c=fitted_c,
                        advisories=tuple(advisories))


def unbiasedness_check(instance: Instance, spec: ObjectiveSpec, kind: str, x,
                       m: int, trials: int, seed: int,
                       convention: str = MIXTURE,
                       weights_override=None) -> tuple[float, float]:
    """Monte Carlo gap between the mean subsampled loss and the exact loss at x.

    Returns (mean over trials of f0_hat(x) - f0(x), standard error of that
    mean).  Pass |gap| <= 4 * stderr.  weights_override replaces the per-atom
    importance weights (negative-control hook).
    """
    if trials < 100:
        raise InvalidInputError("need at least 100 trials")
    x = np.asarray(x, dtype=float)
    q = atom_probabilities(instance, kind, convention)
    w = atom_weights(instance, kind, convention) if weights_override is None \
        else np.asarray(weights_override, dtype=float)
    gvals = np.asarray(eval_loss(spec.loss, instance.atoms @ x))
    f0 = float(instance.masses @ gvals)
    per_atom = w * gvals
    alias = CategoricalSampler(q)
    means = np.empty(trials)
    chunk = max(1, 2_000_000 // max(m, 1))
    done = 0
    while done < trials:
        batch = min(chunk, trials - done)
        rng = derive_rng(seed, done)
        idx = alias.draw(rng, batch * m).reshape(batch, m)
        means[done:done + batch] = per_atom[idx].mean(axis=1)
        done += batch
    gap = float(means.mean() - f0)
    stderr = float(means.std(ddof=1) / math.sqrt(trials))
    return gap, stderr


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.10g}"
    return str(v)


def write_failure_rate_csv(path, rows: list[dict]) -> None:
    cols = ["run_id", "kind", "loss", "reg", "k", "eps", "delta", "m",
            "trials", "failures", "rate", "ci_lo", "ci_hi"]
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(row[c]) for c in cols) + "\n")


def write_scaling_csv(path, kind: str, curve: ScalingCurve) -> None:
    cols = ["kind", "k", "m_star", "slope", "slope_lo", "slope_hi"]
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for k, m_star in curve.points:
            fh.write(",".join(_fmt(v) for v in
                              [kind, k, m_star, curve.fitted_slope,
                               curve.slope_ci[0], curve.slope_ci[1]]) + "\n")
        for k, err in curve.budget_errors:
            fh.write(",".join([kind, _fmt(k), "budget-exceeded", "", "", ""]) + "\n")


def write_plot_data(path, curve: ScalingCurve) -> None:
    """Plain two-column (k, m_star) data file."""
    with open(path, "w") as fh:
        for k, m_star in curve.points:
            fh.write(f"{_fmt(k)} {m_star}\n")
