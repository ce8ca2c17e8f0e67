"""Monte Carlo harness: failure rates, minimal sample sizes, scaling curves.

A probe at sample size m is one count stream: its trials are the rows of one
Multinomial(m, q) count block, drawn in turn from the SFC64 stream keyed by
(master_seed, m), so results do not depend on probing order, and
aggregation is order-independent.  The stream takes the cheapest exact draw
for its rows: under a uniform law, as every lin-*, quad-* and coupon-relu
construction has, a row at m <= 30 n counts m uniform index draws; under any
other law a row at m <= n/2 counts m inverse-CDF index draws; every other
row is numpy's multinomial, one binomial per atom.  A row's counts, mean
weight and failure verdict are reductions over that row alone, so under
every law, draw path and query policy they have the same bits whatever
block the row is drawn in.  `failure_rate` always runs every trial; the m*
search needs only each probe's verdict, so it draws the rows of that stream
in turn and stops once the verdict is fixed: m* is unchanged.

`failure_rates` runs the m values of a failure-rate config on `parallel.run`.
The m* search and a scaling curve's k values stay serial: running the k
values side by side made the mc-scaling benchmark slower (task_rel 5.5 ->
5.8), since its short, verdict-sized probes hold the interpreter lock for
much of their time.
"""

from __future__ import annotations

import bisect
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import parallel
from .errors import BudgetExceededError, DegenerateInstanceError, InvalidInputError
from .hardness import HardInstance, batch_failed, generate, kind_params
from .losses import eval_loss, eval_regularizer
from .model import Instance, ObjectiveSpec
from .objective import build_query_set, relative_gaps
from .sampler import BLOCK_CELLS, MIXTURE, CategoricalSampler, _law, derive_rng

ADVERSARIAL_ONLY = "adversarial-only"
ADVERSARIAL_PLUS_RANDOM = "adversarial-plus-random"

DEFAULT_TRIALS = 200
DEFAULT_M_CAP = 2_000_000
WILSON_Z = 1.96  # normal quantile of the 95% Wilson interval
SLOPE_RESAMPLES = 200  # bootstrap resamples of the scaling slope's interval
# largest m/n at which `_count_rows` counts uniform index draws.  The
# multinomial's binomials have mean about m/n, and numpy draws one by inversion,
# whose cost grows with the mean, up to a mean of 30 and by BTPE past it.  At
# n = 64, 128 and 456 (SFC64), index rows cost 15-29% less than multinomial
# ones at m = 29.75 n, the two are within 11% at 30 n, and at 31 n the
# multinomial costs 29-39% less
INDEX_RATIO = 30


@dataclass(frozen=True, eq=False)
class TrialConfig:
    """Monte Carlo trials on a hard instance, sampled under the instance's own law."""
    eps: float
    delta: float
    trials: int = DEFAULT_TRIALS
    master_seed: int = 0
    hard: HardInstance = field(kw_only=True)
    query_policy: str = ADVERSARIAL_ONLY
    m_cap: int = DEFAULT_M_CAP

    def __post_init__(self):
        if not (0 < self.eps < 1 and 0 < self.delta < 1):
            raise InvalidInputError("eps and delta must lie in (0, 1)")
        if self.trials < 1:
            raise InvalidInputError("trials must be >= 1")
        if self.query_policy not in (ADVERSARIAL_ONLY, ADVERSARIAL_PLUS_RANDOM):
            raise InvalidInputError(f"unknown query policy {self.query_policy!r}")

    @cached_property
    def random_queries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(w g(A X^T), f0, f) at the random queries X the adversarial-plus-random
        policy adds: weighted atom losses and the full objective, built once per
        config; atoms on demand are not built (`Instance.margins`)."""
        inst, spec = self.hard.instance, self.hard.spec
        X = build_query_set(inst.dim, spec.k, seed=self.master_seed,
                            n_gaussian=20, n_sparse=20).queries
        G = eval_loss(spec.loss, inst.margins(X))
        f0 = inst.masses @ G
        return self.hard.law[1][:, None] * G, f0, f0 + eval_regularizer(spec.reg, X) / spec.k


@dataclass(frozen=True)
class ScalingCurve:
    points: tuple[tuple[float, int], ...]
    fitted_slope: float
    slope_ci: tuple[float, float]
    budget_errors: tuple[tuple[float, str], ...] = field(default=())


def wilson_interval(failures: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise InvalidInputError("trials must be >= 1")
    p = failures / trials
    z2 = WILSON_Z * WILSON_Z
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2.0 * trials)) / denom
    half = WILSON_Z * math.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def _block_rows(n: int) -> int:
    """Rows of n cells each that fit in a block of BLOCK_CELLS cells, at least one."""
    return max(1, BLOCK_CELLS // n)


def _index_counts(index: Callable[[int], np.ndarray], m: int,
                  counts: np.ndarray) -> np.ndarray:
    """Fills each row of counts, an int64 (trials, n) block, with the counts over n
    bins of the m indices that index(size) gives, row after row.

    Chunks of at most BLOCK_CELLS indices and bins keep the bins in cache and
    bound the memory; a row of more indices is counted a piece at a time.
    """
    trials, n = counts.shape
    if m > BLOCK_CELLS:
        counts[...] = 0
        for row in counts:
            for done in range(0, m, BLOCK_CELLS):
                row += np.bincount(index(min(BLOCK_CELLS, m - done)), minlength=n)
        return counts
    step = max(1, BLOCK_CELLS // max(m, n))
    for lo in range(0, trials, step):
        rows = min(step, trials - lo)
        idx = index(rows * m)
        if rows > 1:  # row r's atom i is bin r n + i
            idx = idx.reshape(rows, m)
            idx += np.arange(0, rows * n, n)[:, None]
        counts[lo:lo + rows] = np.bincount(idx.ravel(), minlength=rows * n).reshape(rows, n)
    return counts


def _count_rows(q: np.ndarray, w: np.ndarray, m: int, rng: np.random.Generator
                ) -> Callable[[int], tuple[np.ndarray, np.ndarray]]:
    """The count stream of m i.i.d. draws from q: draw(rows) gives the next rows'
    counts, Multinomial(m, q) each, and the mean of w over each row's draws.

    A row counts m index draws where they cost less than the multinomial's n
    binomials: uniform indices under a uniform q at m <= INDEX_RATIO n, and
    inverse-CDF indices, drawn as `draw_iid` draws them, under any other q at
    m <= n/2.  Otherwise the multinomial draws the rows.  The stream chooses
    its path, and builds its inverse CDF, once for all its blocks.  The index
    paths count every block into one array, so a block's counts last until
    the next draw: a fresh array per block would be a fresh mapping of about
    BLOCK_CELLS cells, each of whose pages faults on its first write.  Blocks
    drawn in turn equal one drawn at once bit for bit, mean weights too,
    whatever the law's weights.
    """
    n = q.size
    if q.min() == q.max() and m <= INDEX_RATIO * n:
        def index(size):
            return rng.integers(0, n, size=size)
    elif 2 * m <= n:  # at m = n/2 measured 2.5 vs 4.3 us a row for n = 100, 29 vs 59 for n = 1000
        sampler = CategoricalSampler(q)

        def index(size):
            # a row's counts do not depend on the order of its draws, and its sorted
            # uniforms search faster: each row, or piece of one, is one sorted run
            return sampler.draw(rng, size, run=min(m, size))
    else:
        index = None
    block = np.empty((0, n), dtype=np.int64)

    def draw(rows: int) -> tuple[np.ndarray, np.ndarray]:
        nonlocal block
        if index is None:
            try:
                counts = rng.multinomial(m, q, size=rows)
            except ValueError as exc:  # numpy's own pvals check, at a rounding error of q's
                raise DegenerateInstanceError(f"sampling probabilities rejected: {exc}") from None
        else:
            if len(block) < rows:
                block = np.empty((rows, n), dtype=np.int64)
            counts = _index_counts(index, m, block[:rows])
        # einsum sums each row in an order that does not depend on the block's rows,
        # and casts the int counts a buffer at a time, not as a float copy of the block
        return counts, np.einsum("ij,j->i", counts, w) / m
    return draw


def _probe(cfg: TrialConfig, m: int) -> Callable[[int], int]:
    """fails(rows): the failures among the next rows trials at sample size m.

    The trials are the rows of the count stream keyed by (cfg.master_seed, m).
    A row fails on the kind's predicate or, under the adversarial-plus-random
    policy, at a random query, whose estimate is one same-shape product per
    row; so no verdict depends on the row's block.
    """
    q, w, _ = cfg.hard.law
    draw = _count_rows(q, w, m, derive_rng(cfg.master_seed, m))

    def fails(rows: int) -> int:
        counts, mean_w = draw(rows)
        failed = batch_failed(cfg.hard, counts, mean_w, m, cfg.eps)
        if cfg.query_policy == ADVERSARIAL_PLUS_RANDOM:
            wG, f0, f = cfg.random_queries
            f0_hat = np.array([row @ wG for row in counts]) / m
            failed |= np.any(relative_gaps(f0, f0_hat, f) > cfg.eps, axis=1)  # NaN never fails
        return int(failed.sum())
    return fails


def failure_rate(cfg: TrialConfig, m: int) -> tuple[float, tuple[float, float]]:
    """Empirical failure probability at sample size m over all trials, with a Wilson 95% CI.

    The probe's trials are drawn in turn, in blocks of at most BLOCK_CELLS
    cells, which concatenate to the block drawn at once.
    """
    if m < 1:
        raise InvalidInputError("sample size m must be >= 1")
    fails, rows = _probe(cfg, m), _block_rows(cfg.hard.instance.n)
    failures = 0
    for done in range(0, cfg.trials, rows):
        failures += fails(min(rows, cfg.trials - done))
    return failures / cfg.trials, wilson_interval(failures, cfg.trials)


def failure_rates(cfg: TrialConfig, m_list) -> list[tuple[float, tuple[float, float]]]:
    """[failure_rate(cfg, m) for m in m_list], on `parallel.run`: one item per m,
    each holding one count block of at most max(n, BLOCK_CELLS) cells."""
    m_list = list(m_list)
    # cached_property takes no lock (Python 3.12 on): build what the threads share first
    cfg.hard.law
    if cfg.query_policy == ADVERSARIAL_PLUS_RANDOM:
        cfg.random_queries
    # failure_rate is looked up when an item runs, so a wrapper set on the module counts
    return parallel.run(lambda m: failure_rate(cfg, m), m_list,
                        parallel.workers(len(m_list), max(cfg.hard.instance.n, BLOCK_CELLS)))


def _fail_threshold(trials: int, delta: float) -> int:
    """Fewest failures whose Wilson upper bound exceeds delta; trials + 1 when none does.

    The upper bound rises with the failure count, so a probe's verdict
    (upper bound <= delta) is `failures < _fail_threshold(trials, delta)`.
    """
    return bisect.bisect_right(range(trials + 1), delta,
                               key=lambda k: wilson_interval(k, trials)[1])


def _probe_failures(cfg: TrialConfig, m: int, k_fail: int) -> int:
    """Failures among the first trials at m that fix whether they reach k_fail.

    The rows of the probe's count block are drawn in turn, each block at most
    as many rows as could first settle the verdict: `need` more failures
    decide it, and so do T - done - need + 1 more passes, after which too
    few rows are left.  A block also keeps to BLOCK_CELLS cells; the verdict
    cannot settle inside a block, so splitting one changes no count: a row
    fails as in `failure_rate`'s block, under every law and query policy.
    Returns k_fail on a failed probe, less on a passed one.
    """
    fails, cap = _probe(cfg, m), _block_rows(cfg.hard.instance.n)
    done = failures = 0
    while failures < k_fail <= failures + cfg.trials - done:
        need = k_fail - failures
        rows = min(need, cfg.trials - done - need + 1, cap)
        failures += fails(rows)
        done += rows
    return failures


def min_sample_size(cfg: TrialConfig) -> int:
    """Smallest accepted m, to a resolution of m/64: the minimal sample size m*.

    An m is accepted when the Wilson upper bound on its failure rate is
    <= cfg.delta, and also at 2m (guards non-monotone noise).  Doubling search
    followed by binary search, which stops once hi - lo <= hi // 64 and
    returns hi, an accepted m; unless hi = 1, lo - 1 >= hi - hi // 64 - 1
    was rejected.  Finer steps are below the Monte Carlo noise of a verdict;
    below 64 the step is 0, so such an m* is the exact bisection's.

    Each probe stops drawing trials once its verdict is fixed, and its rows
    fail as `failure_rate`'s do under every law and query policy, so m* is
    the one a full-trial `failure_rate` search finds.  Exceeding the configured
    m cap raises a budget error whose partial table maps each probed m to
    the Wilson upper bound of the failures seen, over all trials: exact for
    a probe that ran every trial, otherwise a lower bound already on its
    verdict's side of delta.
    """
    k_fail = _fail_threshold(cfg.trials, cfg.delta)
    rates: dict[int, float] = {}

    def upper(m: int) -> float:
        if m not in rates:
            rates[m] = wilson_interval(_probe_failures(cfg, m, k_fail), cfg.trials)[1]
        return rates[m]

    def accept(m: int) -> bool:
        return upper(m) <= cfg.delta and upper(2 * m) <= cfg.delta

    m = 1
    while not accept(m):
        m *= 2
        if m > cfg.m_cap:
            raise BudgetExceededError(
                f"no accepted sample size below the cap {cfg.m_cap}", partial=rates)
    lo, hi = m // 2 + 1, m
    while hi - lo > hi // 64:
        mid = (lo + hi) // 2
        if accept(mid):
            hi = mid
        else:
            lo = mid + 1
    return hi


def _slopes(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The least-squares slope of each row of y on the same row of x, by the
    centred closed form sum (x - mean x)(y - mean y) / sum (x - mean x)^2.

    A row is fitted by itself whatever rows it is stacked with, and m* values
    symmetric in log k fit exactly 0."""
    xc = x - x.mean(axis=1, keepdims=True)
    yc = y - y.mean(axis=1, keepdims=True)
    return (xc * yc).sum(axis=1) / (xc * xc).sum(axis=1)


def fit_loglog_slope(ks, ms) -> float:
    """The least-squares slope of log m against log k."""
    ks = np.asarray(ks, dtype=float)
    ms = np.asarray(ms, dtype=float)
    if ks.size < 2 or np.unique(ks).size < 2:
        raise InvalidInputError("need at least two distinct k values to fit a slope")
    return float(_slopes(np.log(ks)[None, :], np.log(ms)[None, :])[0])


def _bootstrap_slope_ci(points, seed: int) -> tuple[float, float]:
    """2.5th and 97.5th percentiles of the log-log slope over case resamples of points.

    All resamples are drawn at once from the stream (seed, 0xB007) and fitted
    by `_slopes`, as the point fit is; a resample whose log k has no spread
    has no slope and is dropped.  NaNs when every resample is dropped, and
    for fewer than three points: each resample of two either repeats the
    point fit or is dropped, so its interval would have zero width.
    """
    if len(points) < 3:
        return (float("nan"), float("nan"))
    x = np.log(np.array([p[0] for p in points], dtype=float))
    y = np.log(np.array([p[1] for p in points], dtype=float))
    idx = derive_rng(seed, 0xB007).integers(0, x.size, size=(SLOPE_RESAMPLES, x.size))
    xs, ys = x[idx], y[idx]
    spread = np.any(xs != xs[:, :1], axis=1)
    slopes = _slopes(xs[spread], ys[spread])
    if slopes.size == 0:
        return (float("nan"), float("nan"))
    return (float(np.percentile(slopes, 2.5)), float(np.percentile(slopes, 97.5)))


def scaling_curve(kind: str, k_list, eps: float, delta: float,
                  trials: int = DEFAULT_TRIALS, seed: int = 0,
                  reg: str | None = None, m_cap: int = DEFAULT_M_CAP) -> ScalingCurve:
    """Minimal sample size per k and the least-squares log-log slope.

    Kinds whose generator takes eps (the quadratic constructions) are sized
    for the curve's eps.  Every k is generated before any is solved, so a bad
    parameter, like a repeated k, fails the whole curve at once.  The slope
    CI is a 200-resample case bootstrap.  Budget failures are recorded per k
    instead of aborting the curve.
    """
    k_list = sorted(float(k) for k in k_list)
    if len(k_list) < 3:
        raise InvalidInputError("need at least three k values")
    repeated = sorted({k for k, after in zip(k_list, k_list[1:]) if k == after})
    if repeated:
        raise InvalidInputError(f"k_list repeats k = {', '.join(f'{k:g}' for k in repeated)}")
    params = {"eps": eps} if "eps" in kind_params(kind) else {}
    if reg is not None:
        params["reg"] = reg
    hards = [generate(kind, k=k, **params) for k in k_list]

    def solve(k: float, hard: HardInstance):
        # k's stream is keyed by its IEEE-754 bits, so every distinct k has its own
        bits = int(np.float64(k).view(np.uint64))
        cfg = TrialConfig(eps=eps, delta=delta, trials=trials,
                          master_seed=int(derive_rng(seed, bits).integers(2 ** 62)),
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


def unbiasedness_check(instance: Instance, spec: ObjectiveSpec, kind: str, x,
                       m: int, trials: int, seed: int,
                       weights_override=None) -> tuple[float, float]:
    """Monte Carlo gap between the mean subsampled loss and the exact loss at x.

    Returns (mean over trials of f0_hat(x) - f0(x), standard error of that
    mean).  Pass |gap| <= 4 * stderr.  weights_override replaces the per-atom
    importance weights (negative-control hook): one finite weight per atom.
    """
    if trials < 100 or m < 1:
        raise InvalidInputError("need at least 100 trials and m >= 1")
    x = np.asarray(x, dtype=float)
    q, w, _ = _law(instance, kind, MIXTURE)
    if weights_override is not None:
        w = np.asarray(weights_override, dtype=float)
        if w.shape != q.shape or not np.all(np.isfinite(w)):
            raise InvalidInputError(f"weights_override must hold {q.size} finite weights")
    gvals = np.asarray(eval_loss(spec.loss, instance.atoms @ x))
    f0 = float(instance.masses @ gvals)
    per_atom = w * gvals
    draw, rows = _count_rows(q, per_atom, m, derive_rng(seed, m)), _block_rows(q.size)
    means = np.concatenate([draw(min(rows, trials - t))[1] for t in range(0, trials, rows)])
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
