"""Objective evaluation, relative-error measurement, OPT bounds, sample-size rules.

The uniform relative-error guarantee

    |f0(x) - f0_hat(x)| <= eps * f(x)   for all x

is checked on finite query sets; queries where f(x) = 0 (possible only for
the relu loss) are flagged as NaN and skipped by the maximizer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import parallel
from .errors import (
    ApplicabilityError,
    BudgetExceededError,
    DimensionMismatchError,
    InvalidInputError,
    NonFiniteQueryError,
    OptimizerFailureError,
)
from .losses import (
    HINGE,
    L1,
    L2,
    L2SQ,
    LOGISTIC,
    RELU,
    SIGMOID,
    LossSpec,
    RegSpec,
    eval_loss,
    eval_loss_derivative,
    eval_regularizer,
)
from .model import Constants, Instance, ObjectiveSpec, dense_budget, scale_exponent
from .model import _read_lines, _read_records, _write_records  # the JSONL reader and writer
from .sampler import Coreset, derive_rng

TAG_ADVERSARIAL = "adversarial"
TAG_GAUSSIAN = "random-gaussian"
TAG_SPARSE = "random-sparse"
TAG_GRID = "grid"
TAG_ORIGIN = "origin"

RULE_NORM = "norm"
RULE_BOUNDED_DERIVATIVE = "bounded-derivative"
RULE_L1 = "l1"

BLOCK = 2 ** 18  # margin elements per query block of evaluate


@dataclass(frozen=True, eq=False)
class QuerySet:
    queries: np.ndarray          # (q, d)
    tags: tuple[str, ...] = field(default=())
    implied_origin: bool = field(default=False, init=False)  # row 0 is the added origin

    def __post_init__(self):
        queries = np.atleast_2d(np.asarray(self.queries, dtype=float))
        if queries.shape[0] == 0:
            raise InvalidInputError("query set must be nonempty")
        if not np.all(np.isfinite(queries)):
            raise InvalidInputError("queries must be finite")
        tags = tuple(self.tags) if self.tags else tuple("grid" for _ in range(queries.shape[0]))
        if len(tags) != queries.shape[0]:
            raise InvalidInputError("one tag per query required")
        if not np.any(~np.any(queries != 0.0, axis=1)):
            queries = np.vstack([np.zeros((1, queries.shape[1])), queries])
            tags = (TAG_ORIGIN,) + tags
            object.__setattr__(self, "implied_origin", True)
        object.__setattr__(self, "queries", queries)
        object.__setattr__(self, "tags", tags)
        queries.setflags(write=False)

    def __len__(self) -> int:
        return self.queries.shape[0]


@dataclass(frozen=True, eq=False)
class OptReport:
    opt_value: float
    minimizer: np.ndarray
    analytic_lower: float
    analytic_upper: float
    dual_lower: float


def evaluate(atoms, coef, spec: ObjectiveSpec, X) -> tuple[np.ndarray, np.ndarray]:
    """(f0, R/k) for every query row of X, with f0 = coef @ g(atoms @ X.T).

    coef is (n,) for one weighting of the n atoms or (T, n) for T weightings
    at once; f0 is then (Q,) or (T, Q) and R/k is (Q,).  Query rows are
    taken in blocks of at most BLOCK margin elements, so memory stays bounded
    for any number of queries.  The blocks of a call that has more than one
    run on `parallel.run`, each worker taking a run of consecutive blocks in
    one margins and one loss buffer.  Every block makes the same BLAS calls
    on the same shapes, so f0 has the same bits whatever the worker count.
    """
    atoms = np.asarray(atoms, dtype=float)
    coef = np.asarray(coef, dtype=float)
    X = np.asarray(X, dtype=float)
    if X.shape[1:] != atoms.shape[1:]:
        raise DimensionMismatchError(f"queries {X.shape} do not match atoms {atoms.shape}")
    f0 = np.empty(coef.shape[:-1] + (X.shape[0],))
    step = max(1, min(BLOCK // atoms.shape[0], X.shape[0]))  # fewer queries: smaller buffers
    starts = range(0, X.shape[0], step)
    cells = atoms.shape[0] * step
    workers = 1 if len(starts) < 2 else parallel.workers(len(starts), 2 * cells, blas=True)
    # every worker's margins and loss buffers, in one array made on this thread:
    # glibc keeps what a thread frees in that thread's malloc arena (buffers the
    # workers made raised the eval benchmark's peak RSS by 16 MB), and separate
    # 2 MB buffers were mapped afresh on every call (eval task_rel 17.1 -> 18.8)
    buffers = np.empty((workers, 2, cells))
    def share(w):  # worker w's run of consecutive blocks, in its slice of buffers
        _blocks(atoms, coef, spec.loss, X, f0,
                starts[w * len(starts) // workers:(w + 1) * len(starts) // workers], *buffers[w])

    parallel.run(share, range(workers), workers)
    return f0, eval_regularizer(spec.reg, X) / spec.k


def _blocks(atoms, coef, loss: LossSpec, X, f0, starts: range, margins, values) -> None:
    """Write f0's query blocks that begin at starts, reusing the margins and values buffers.

    `eval_loss` may overwrite a block's margins, which nothing reads after it."""
    for lo in starts:
        block = X[lo:lo + starts.step]
        shape = (atoms.shape[0], block.shape[0])
        size = shape[0] * shape[1]  # contiguous views: BLAS writes them as it writes a new array
        r = np.matmul(atoms, block.T, out=margins[:size].reshape(shape))
        f0[..., lo:lo + starts.step] = coef @ eval_loss(loss, r, out=values[:size].reshape(shape))


def full_objective(instance: Instance, spec: ObjectiveSpec, x) -> tuple[float, float]:
    """(f0, f) at x over the full instance."""
    f0, r = evaluate(instance.atoms, instance.masses, spec, [x])
    return float(f0[0]), float(f0[0] + r[0])


def relative_gaps(f0, f0_hat, f) -> np.ndarray:
    """|f0 - f0_hat| / f, broadcast; NaN where f <= 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(f > 0.0, np.abs(f0 - f0_hat) / f, np.nan)


def relative_errors(instance: Instance, spec: ObjectiveSpec, samples: Coreset, X) -> np.ndarray:
    """|f0(x) - f0_hat(x)| / f(x) for every query row of X; NaN where f(x) <= 0.

    Raises NonFiniteQueryError, naming the first such row, where f(x) (so also
    f0(x)) or f0_hat(x) is not finite: no relative error is measured there."""
    with np.errstate(over="ignore", invalid="ignore"):
        f0, r = evaluate(instance.atoms, instance.masses, spec, X)
        f0_hat, _ = evaluate(samples.a, samples.w / len(samples), spec, X)
        f = f0 + r
    bad = np.flatnonzero(~(np.isfinite(f) & np.isfinite(f0_hat)))
    if bad.size:
        i = int(bad[0])
        raise NonFiniteQueryError(f"f(x) = {f[i]:g}, f0 = {f0[i]:g} and f0_hat = {f0_hat[i]:g}, "
                                  "where a relative error needs all three finite", row=i)
    return relative_gaps(f0, f0_hat, f)


def relative_error(instance: Instance, spec: ObjectiveSpec, samples: Coreset, x) -> float:
    """|f0(x) - f0_hat(x)| / f(x); NaN when f(x) = 0 (infinite-sensitivity flag)."""
    return float(relative_errors(instance, spec, samples, [x])[0])


def worst_error(errors: np.ndarray) -> tuple[float, int, int]:
    """(max, index of the first max, number of NaN entries skipped) of relative errors."""
    flagged = np.isnan(errors)
    if flagged.all():
        raise InvalidInputError("every query was flagged; effective query set is empty")
    i = int(np.nanargmax(errors))
    return float(errors[i]), i, int(flagged.sum())


def max_relative_error(instance: Instance, spec: ObjectiveSpec, samples: Coreset,
                       queries: QuerySet) -> tuple[float, np.ndarray, int]:
    """Maximum relative error over the query set.

    Returns (max, argmax query, number of flagged queries skipped).
    """
    best, i, skipped = worst_error(relative_errors(instance, spec, samples, queries.queries))
    return best, queries.queries[i], skipped


def opt_lower_bound(loss: LossSpec, reg: RegSpec, k: float, L: float, B: float) -> float:
    """Certified analytic lower bound on inf_x f(x)."""
    g0 = loss.g0
    if g0 == 0.0:
        return 0.0
    if B == 0.0:
        # all mass at the origin: f0(x) = g(0) for every x
        return g0
    if reg.kind == L2SQ:
        a = (L * B) * (L * B) * k
        if a < (2.0 - math.sqrt(3.0)) * g0:
            # min over r >= 0 of max(g0 - L B r, 0) + r^2 / k, at r = L B k / 2
            return g0 - a / 4.0
        return g0 * g0 / (4.0 * a)
    return min(g0, g0 / (L * B * k))


def estimate_opt(instance: Instance, spec: ObjectiveSpec, restarts: int = 8,
                 seed: int = 0) -> OptReport:
    """Minimum of f by one solver per problem class, with a certified lower bound.

    relu: the origin, since f >= 0 = f(0).  hinge first merges repeated
    atoms into one of their summed mass; hinge/l1: an LP (HiGHS).
    hinge/l2sq: the exact minimum by a primal active set in d dimensions,
    whose multipliers alpha maximize the box dual sum(alpha) -
    (k/4)|A^T alpha|^2 over 0 <= alpha <= p.  hinge/l2: the hinge/l2sq
    minimum at the weight where |A^T alpha| = 1/k, which is the l2 minimum;
    each exact l2sq solve of that 1-D search gives the next weight, the root
    on its last face, where x and alpha are affine in the weight.  logistic:
    a modified Newton method in d dimensions from the origin, orthant-wise
    for l1 and with the origin tested directly for l2 (`_newton_minima`).
    sigmoid, which is not convex: the same method from the origin and
    restarts - 1 Gaussian starts derive_rng(seed, r), all run together,
    refused with BudgetExceededError when the starts, or the d x d Hessian,
    exceed `model.MAX_DENSE_CELLS` cells.

    The solvers see the atoms divided by a power of two c >= 1 near their
    largest entry and the regularizer weight 1/(k c^p) of a degree-p
    regularizer; that problem at c x equals f at x, so no norm or margin
    overflows.  For a convex class dual_lower is a Fenchel dual value at the
    solver's multipliers (hinge) or at g'(margins) (logistic), scaled into the
    dual-feasible set; for sigmoid it is the analytic lower bound.  The
    analytic bound is capped at opt_value, so analytic_lower <= dual_lower
    <= opt_value.  Each candidate's value is `full_objective`'s, bit for bit,
    and the first candidate within _NEWTON_TOL of the least value is reported.
    The origin is always a candidate, so opt_value <= f(0) = sum(p) g(0),
    which is g(0) up to the rounding of the masses' sum.  Raises
    OptimizerFailureError when the rescaled weight is below MIN_WEIGHT (l2sq
    atoms with entries of 2^250 or more, or k above 2^500) or a solver cannot
    finish.
    """
    if restarts < 1:
        raise InvalidInputError("restarts must be >= 1")
    loss, reg, k = spec.loss, spec.reg, spec.k
    lower = opt_lower_bound(loss, reg, k, loss.lipschitz_formula,
                            float(instance.masses @ instance.norms()))
    upper = loss.g0

    e = scale_exponent(instance.atoms)
    A, p = np.ldexp(instance.atoms, -e), instance.masses
    lam = math.ldexp(1.0 / k, -reg.homogeneity_degree * e)
    if loss.kind == RELU:
        ys = []
    elif lam < MIN_WEIGHT:
        raise OptimizerFailureError(
            f"k = {k:.3g} puts the regularizer weight 1/k below 2^-500" if 1.0 / k < MIN_WEIGHT
            else f"atom entries reach 2^{e}: the regularizer weight {lam:.3g} of the rescaled "
                 "problem is below 2^-500")
    elif loss.kind == HINGE:
        A, p = _merge_repeats(A, p)
        y, alpha = _HINGE[reg.kind](A, p, lam)[:2]  # l2sq adds its last face and state
        ys = [y]
    else:
        count = restarts if loss.kind == SIGMOID else 1
        dense_budget(count, instance.dim, "starts")
        dense_budget(instance.dim, instance.dim, "Hessian rows")
        starts = np.zeros((count, instance.dim))
        for r in range(1, len(starts)):
            starts[r] = derive_rng(seed, r).standard_normal(instance.dim)
        ys = list(_newton_minima(loss, reg, A, p, lam, starts))

    # each candidate on its own: a block's rounding depends on how many rows it holds
    X = [np.ldexp(y, -e) for y in ys] + [np.zeros(instance.dim)]
    vals = [full_objective(instance, spec, x)[1] for x in X]
    # values within _NEWTON_TOL of the least are one minimum, reached again by later
    # starts in other last bits: the first is reported, whatever the number of starts
    least = min(vals)
    r = next(j for j, v in enumerate(vals) if v <= least + _NEWTON_TOL * abs(least))
    best_val, best_x = vals[r], X[r]
    if not (lower - 1e-9 <= best_val <= upper + 1e-9):
        raise OptimizerFailureError(
            f"optimizer value {best_val} escaped bracket [{lower}, {upper}]")
    # the analytic bound takes the masses to sum to 1 exactly, so an attained
    # value can fall below it by their rounding, as f(0) = sum(p) g(0) does
    lower = min(lower, best_val)
    if loss.kind == RELU:
        dual = 0.0
    elif loss.kind == HINGE:
        dual = _dual_value(loss, reg, A, p, -alpha / p, lam)
    elif loss.kind == LOGISTIC:
        u = eval_loss_derivative(loss, A @ np.ldexp(best_x, e))
        dual = _dual_value(loss, reg, A, p, u, lam)
    else:
        dual = lower  # sigmoid is not convex
    if dual > best_val + 1e-9 * max(1.0, best_val):
        raise OptimizerFailureError(f"dual value {dual} exceeds the attained {best_val}")
    return OptReport(opt_value=best_val, minimizer=best_x, analytic_lower=lower,
                     analytic_upper=upper, dual_lower=min(max(lower, dual), best_val))


# The least regularizer weight of a rescaled problem: its square, its inverse
# and |A^T alpha|^2 over four times it stay finite and normal
MIN_WEIGHT = 2.0 ** -500
# the Newton decrement relative to F at which a start takes its last step, and
# HiGHS's tolerances, set well below the 1e-6 relative duality gap that verify
# demands of every convex problem, and the hinge/l2 search's match of |A^T alpha| to lam
_NEWTON_TOL = 2.0 ** -44
_HIGHS = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10,
          "presolve": False}
_L2_MATCH = 1e-12
# hinge active set: a step moves a margin towards 1 only if by more than this
# share of |a_i| (|x| + |target|), which is above its rounding; the most steps
_TINY = 2.0 ** -36
_ACTIVE_SET_STEPS = 10000
# modified Newton: the eigenvalue floor relative to |H|_F + lam, Armijo's constant,
# the most backtracks of one step and the most steps of one start
_EIG_FLOOR = 2.0 ** -40
_ARMIJO = 1e-4
_BACKTRACKS = 60
_NEWTON_STEPS = 200


def _hinge_l1(A, p, lam):
    """LP min p @ xi + lam 1 @ (u + v) s.t. xi >= 1 - A (u - v), u, v, xi >= 0."""
    from scipy import sparse
    from scipy.optimize import linprog

    n, d = A.shape
    cost = np.concatenate([np.full(2 * d, lam), p])
    rows = sparse.hstack([sparse.csr_array(-A), sparse.csr_array(A), -sparse.eye_array(n)])
    res = linprog(cost, A_ub=rows, b_ub=-np.ones(n), bounds=(0, None), method="highs",
                  options=_HIGHS)
    if res.status != 0:
        raise OptimizerFailureError(f"hinge LP failed: {res.message}")
    return res.x[:d] - res.x[d:2 * d], -res.ineqlin.marginals


def _merge_repeats(A, p):
    """One row per distinct atom, carrying the summed mass of its copies; A and p
    themselves when no row repeats.  Repeated rows would make the working-set
    system of `_hinge_l2sq` singular."""
    _, first, inverse = np.unique(A, axis=0, return_index=True, return_inverse=True)
    if len(first) == len(p):
        return A, p
    return A[first], np.bincount(inverse.ravel(), weights=p)


def _face(A, p, low, work):
    """(u, v, nu0, nu1) of the `_hinge_l2sq` face with loss side `low` and the
    margins of `work` at 1: its least point at weight mu is x = u / (2 mu) + v,
    with 2 mu x - g = A_W^T (nu0 + mu nu1) and g = sum over L of p_i a_i.  From
    A_W^T = Q1 R: u = Q2 Q2^T g, v = Q1 R^-T 1, nu0 = -R^-1 Q1^T g and nu1 =
    2 R^-1 R^-T 1; u is orthogonal to v, so |2 mu x| = sqrt(|u|^2 + 4 mu^2 |v|^2)."""
    g, w = (p * low) @ A, len(work)
    if not w:
        return g, np.zeros_like(g), g[:0], g[:0]
    # A_W x = 1 holds to rounding whatever the size of u / (2 mu)
    Q, R = np.linalg.qr(A[work].T, mode="complete")
    try:
        c = np.linalg.solve(R[:w].T, np.ones(w))
        nu = np.linalg.solve(R[:w], np.column_stack([-Q[:, :w].T @ g, 2.0 * c]))
    except np.linalg.LinAlgError:
        nu = np.full((w, 2), math.nan)
    if not np.all(np.isfinite(nu)):
        raise OptimizerFailureError(f"singular hinge working set of {w} atoms")
    return Q[:, w:] @ (Q[:, w:].T @ g), Q[:, :w] @ c, nu[:, 0], nu[:, 1]


def _hinge_l2sq(A, p, lam, start=None):
    """Exact minimum of F(x) = p @ max(0, 1 - A x) + lam |x|^2 by a primal active set,
    with the optimal alpha of the box dual max sum(alpha) - |A^T alpha|^2 / (4 lam)
    over 0 <= alpha <= p (Nocedal & Wright, Numerical Optimization, 2nd ed., 16.5).

    Every atom is in one of three states, kept as state and never read back
    from rounded margins: the loss side L (margin below 1), the zero side, or
    the working set W of margins held at 1.  A step goes towards the least
    point of F on the current face (`_face`), by an exact line search over
    the kinks on the way (one sort): the kinks it passes change side, and
    the kink it stops at joins W.  A margin the step moves by no more than
    its rounding has no kink, so a row in the span of A_W never joins W,
    where it would make the |W| x |W| system singular.  Once the step
    reaches the face's least point, the least-index member of W with nu_i
    outside [0, p_i] leaves for the side it points to (Bland's rule); when
    there is none, alpha = p on L, nu on W and 0 elsewhere is optimal, and
    x, alpha, the (u, v) of that face and the final state (L, W, x) are
    returned.  A state an earlier solve on the same A and p returned may
    start the search in place of x = 0: the sides and W of a state are those
    of x's margins, whatever the weight.  The rows of A must be distinct
    (`_merge_repeats`).  Raises OptimizerFailureError on a singular working
    set or after _ACTIVE_SET_STEPS steps.
    """
    n, d = A.shape
    norms = np.linalg.norm(A, axis=1)
    if start is None:  # L: x = 0 puts every margin at 0
        low, work, x = np.ones(n, dtype=bool), [], np.zeros(d)
    else:
        low, work, x = start[0].copy(), list(start[1]), start[2]
    held = np.zeros(n, dtype=bool)  # W, also listed in order of entry by `work`
    held[work] = True
    for _ in range(_ACTIVE_SET_STEPS):
        u, v, nu0, nu1 = _face(A, p, low, work)
        target = u / (2.0 * lam) + v
        step = target - x
        slope, margin = A @ step, A @ x
        # kinks ahead: a loss-side margin rising to 1, or a zero-side one falling to
        # it, by more than its rounding (W holds rows along which it is 0)
        size = math.sqrt(x @ x) + math.sqrt(target @ target)
        ahead = np.flatnonzero((np.where(low, slope, -slope) > _TINY * size * norms) & ~held)
        t = (1.0 - margin[ahead]) / slope[ahead]
        near = t < 1.0
        order = np.argsort(t[near], kind="stable")  # ties: the least index first
        ahead, t = ahead[near][order], np.maximum(t[near][order], 0.0)
        if not len(t):  # at the face's least point
            x, nu = target, nu0 + lam * nu1
            bad = np.flatnonzero((nu < 0.0) | (nu > p[work]))
            if not len(bad):
                alpha = p * low
                alpha[work] = nu
                return x, alpha, (u, v), (low, work, x)
            i = min(work[j] for j in bad)  # Bland: the least index leaves W
            low[i], held[i] = nu[work.index(i)] > p[i], False
            work.remove(i)
            continue
        # along the step, F's slope is q (t - 1) plus p_i |slope_i| for each kink passed
        q = 2.0 * lam * float(step @ step)
        rise = np.cumsum(p[ahead] * np.abs(slope[ahead]))
        past = q * (t - 1.0) + rise >= 0.0  # the slope past each kink, which only rises
        j = int(np.argmax(past)) if past[-1] else len(t)
        root = 1.0 - rise[j - 1] / q if j else 1.0
        low[ahead[:j]] = ~low[ahead[:j]]
        if j < len(t) and t[j] <= root:
            i = int(ahead[j])
            low[i], held[i] = False, True
            work.append(i)
            root = t[j]
        x = x + root * step
    raise OptimizerFailureError(f"hinge active set did not finish in {_ACTIVE_SET_STEPS} steps")


def _hinge_l2(A, p, lam):
    """Dual max sum(alpha) s.t. 0 <= alpha <= p, |A^T alpha| <= lam, and its x.

    That is the l2sq box dual at the weight mu where |A^T alpha(mu)| = lam:
    there A^T alpha = lam x / |x| at the l2sq minimum x(mu), which is thus
    the l2 minimum.  The norm does not decrease in mu: alpha = p above
    max|a_i| sum(p_i |a_i|) / 2, where every margin is below 1, and it is
    below lam under lam^2 / (4 sum(p)), as f(x) <= f(0) bounds mu |x|^2.
    Each probe is an exact `_hinge_l2sq` solve at or above MIN_WEIGHT, which
    starts from the last probe's final state.  The next is at the root
    sqrt(lam^2 - |u|^2) / (2 |v|) of the last probe's face (`_face`; the path
    is piecewise so, Hastie, Rosset, Tibshirani & Zhu, JMLR 2004), or at the
    bracket's geometric mean when that root lies outside it.  The search
    stops once the face's norm is lam to _L2_MATCH relative, or when it can
    go no further.
    """
    if np.linalg.norm(p @ A) <= lam:
        return np.zeros(A.shape[1]), p  # alpha = p is optimal, and x = 0 attains its value
    norms = np.linalg.norm(A, axis=1)
    lo, hi = lam * lam / (4.0 * p.sum()), norms.max() * (p @ norms) / 2.0
    mu, state = math.sqrt(lo) * math.sqrt(hi), None
    for _ in range(100):  # the bracket reaches float resolution sooner
        mu = max(mu, MIN_WEIGHT)
        x, alpha, (u, v), state = _hinge_l2sq(A, p, mu, state)
        # |A^T alpha| from the face: u + 2 mu v itself cancels to rounding of |g|
        a, b = float(np.linalg.norm(u)), float(np.linalg.norm(v))
        size = math.hypot(a, 2.0 * mu * b)
        if abs(size - lam) <= _L2_MATCH * lam or (size > lam and mu == MIN_WEIGHT):
            break  # matched, or the weight that matches is below MIN_WEIGHT
        lo, hi = (lo, mu) if size > lam else (mu, hi)
        root = math.sqrt((lam - a) * (lam + a)) / (2.0 * b) if a < lam and b > 0.0 else 0.0
        mu = root if lo < root < hi else math.sqrt(lo) * math.sqrt(hi)
        if not lo < mu < hi:
            break
    return x, alpha


_HINGE = {L1: _hinge_l1, L2: _hinge_l2, L2SQ: _hinge_l2sq}


def _newton_minima(loss, reg, A, p, lam, starts):
    """A local minimum of F(y) = p @ g(A y) + lam R(y) from each row of starts,
    by a modified Newton method on blocks of at most BLOCK // (max(n, d) d) starts.

    Each step s = -H^-1 G takes the exact Hessian A^T diag(p g''(A y)) A plus
    the regularizer's, with its eigenvalues in absolute value and floored at
    _EIG_FLOOR (|H|_F + lam), so that s descends also where sigmoid is not
    convex (Nocedal & Wright, Numerical Optimization, 2nd ed., 3.4).  l2sq
    adds 2 lam I.  l1 is orthant-wise (Andrew & Gao, ICML 2007): G is the
    least-norm subgradient, a zero coordinate is free once |d f0| > lam and
    moves only into the orthant of -G (else it is held at 0 and s solved
    again), and a coordinate that a step takes across 0 stops at 0.  l2 adds
    lam (I - u u^T) / |y|, u = y / |y|, away from the origin.  At the origin G
    is the least-norm subgradient g (1 - lam / |g|)+ of g = grad f0(0), and s
    is -G over the curvature along g.  The origin is a minimum when |g| <=
    lam: then a step that passes it (<y + s, y> <= 0) stops there; otherwise
    such a step loses its part along y, as an l1 coordinate that crosses 0.
    A start that reaches the origin ends there, since it would retrace the
    origin start's steps.  A step needs Armijo's decrease, unless its
    decrement -G.s is within _NEWTON_TOL F, F's rounding: that step is taken
    whole, which puts G near its own rounding, and is the start's last.  A
    start also ends when no step lowers F, or after _NEWTON_STEPS steps.
    Every quantity is a reduction over one start's row (einsum, a stacked
    matmul and eigh, whose BLAS and LAPACK calls are one per start), so a
    start's iterates have the same bits in any block.
    """
    Y = np.array(starts, dtype=float)
    rows = max(1, BLOCK // (max(A.shape) * A.shape[1]))
    kink = reg.kind == L2 and abs(eval_loss_derivative(loss, 0.0)) * np.linalg.norm(p @ A) <= lam
    with np.errstate(all="ignore"):  # a rejected trial may overflow
        for lo in range(0, len(Y), rows):
            _newton_block(loss, reg, A, p, lam, Y[lo:lo + rows], kink)
    return Y


def _newton_block(loss, reg, A, p, lam, Y, kink):
    """`_newton_minima` on the starts Y, in place."""
    F, M = _values(loss, reg, A, p, lam, Y)
    live = np.arange(len(Y))
    for _ in range(_NEWTON_STEPS):
        G, step = _newton_step(loss, reg, A, p, lam, Y[live], M[live])
        slope = np.einsum("sd,sd->s", G, step)
        live, step, slope = live[slope < 0.0], step[slope < 0.0], slope[slope < 0.0]
        # a step whose decrease is within _NEWTON_TOL F is the last, taken whole unless
        # it raises F by more.  Any other needs Armijo's decrease; each failed trial
        # shrinks it to the least point of the quadratic through F, the slope and the
        # trial's value, within [t / 10, t / 2] (Nocedal & Wright, 3.5)
        near = -slope <= _NEWTON_TOL * F[live]
        bar = np.where(near, _NEWTON_TOL * F[live], _ARMIJO * slope)
        t, todo, keep = np.ones(len(live)), np.arange(len(live)), np.zeros(len(live), bool)
        for _ in range(_BACKTRACKS):
            i = live[todo]
            trial = _orthant(reg, Y[i], t[todo, None] * step[todo], kink)
            f, m = _values(loss, reg, A, p, lam, trial)
            ok = f <= F[i] + t[todo] * bar[todo]
            keep[todo[ok]] = ~near[todo[ok]] & (f[ok] < F[i[ok]]) & np.any(trial[ok], axis=1)
            Y[i[ok]], F[i[ok]], M[i[ok]] = trial[ok], f[ok], m[ok]
            fail = ~ok & ~near[todo]
            i, todo, f = i[fail], todo[fail], f[fail]
            if not len(todo):
                break
            rise = f - F[i] - t[todo] * slope[todo]
            shrink = np.where(rise > 0.0, -0.5 * t[todo] * slope[todo] / rise, 0.1)
            t[todo] *= np.clip(shrink, 0.1, 0.5)  # 0.1 after a value that overflowed
        live = live[keep]
        if not len(live):
            return


def _values(loss, reg, A, p, lam, Y):
    """(F, margins) of each row of Y."""
    M = np.einsum("sd,nd->sn", Y, A)
    return np.einsum("sn,n->s", eval_loss(loss, M), p) + lam * eval_regularizer(reg, Y), M


def _orthant(reg, Y, step, kink):
    """The trial points Y + step: l1 coordinates that cross 0 stop at 0, and l2 points
    past the origin stop at it under kink (the origin is a minimum) and else lose their
    part along y."""
    Z = Y + step
    if reg.kind == L1:
        Z[Y * Z < 0.0] = 0.0
    elif reg.kind == L2:
        ahead = np.einsum("sd,sd->s", Z, Y)
        cross = (ahead <= 0.0) & np.any(Y, axis=1)
        if kink:
            Z[cross] = 0.0
        else:
            y = Y[cross]
            Z[cross] -= (ahead[cross] / np.einsum("sd,sd->s", y, y))[:, None] * y
    return Z


def _newton_step(loss, reg, A, p, lam, Y, M):
    """(G, step) of `_newton_minima` at each row of Y, whose margins are M."""
    from scipy.special import expit

    up, down = expit(M), expit(-M)
    if loss.kind == LOGISTIC:
        slope, curve = -down, up * down
    else:  # sigmoid: g' = -up down, g'' = up down (up - down)
        slope, curve = -(up * down), up * down * (up - down)
    G = np.einsum("sn,nd->sd", slope * p, A)
    H = np.matmul(np.swapaxes((curve * p)[:, :, None] * A, 1, 2), A)  # one GEMM per start
    eye = np.eye(Y.shape[1])
    if reg.kind == L2SQ:
        G = G + 2.0 * lam * Y
        return G, _solve(H + 2.0 * lam * eye, G, lam)
    if reg.kind == L1:
        zero = Y == 0.0
        G = np.where(zero, np.sign(G) * np.maximum(np.abs(G) - lam, 0.0), G + lam * np.sign(Y))
        fixed = zero & (G == 0.0)
        while True:  # a zero coordinate moves only into the orthant of -G, or stays
            H = np.where(fixed[:, :, None] | fixed[:, None, :], 0.0, H)
            step = _solve(H, G, lam, fixed)
            wrong = zero & ~fixed & (step * G >= 0.0)
            if not wrong.any():
                return G, step
            fixed |= wrong
    size = np.sqrt(np.einsum("sd,sd->s", Y, Y))
    origin = size == 0.0
    u = Y / np.where(origin, 1.0, size)[:, None]
    step = _solve(H + (lam / np.where(origin, math.inf, size))[:, None, None]
                  * (eye - u[:, :, None] * u[:, None, :]), G + lam * u, lam)
    if origin.any():  # along g = grad f0(0), over the curvature of f0 along it
        g, Hg = G[origin], H[origin]
        norm = np.sqrt(np.einsum("sd,sd->s", g, g))
        unit = g / np.where(norm > 0.0, norm, 1.0)[:, None]
        bend = np.abs(np.einsum("sd,sde,se->s", unit, Hg, unit))
        floor = _EIG_FLOOR * (np.sqrt(np.einsum("sde,sde->s", Hg, Hg)) + lam)
        G[origin] = unit * np.maximum(norm - lam, 0.0)[:, None]
        step[origin] = -G[origin] / np.maximum(bend, floor)[:, None]
    G[~origin] += lam * u[~origin]
    return G, step


def _solve(H, G, lam, fixed=None):
    """-H^-1 G for each row, with the eigenvalues of H taken in absolute value and
    floored at _EIG_FLOOR (|H|_F + lam); coordinates in fixed, whose rows and
    columns of H are 0, do not move."""
    floor = _EIG_FLOOR * (np.sqrt(np.einsum("sde,sde->s", H, H)) + lam)
    if fixed is not None:
        H = H + np.eye(H.shape[1]) * fixed[:, None, :]
    values, V = np.linalg.eigh(H)
    scale = np.maximum(np.abs(values), floor[:, None])
    step = -np.einsum("sde,se->sd", V, np.einsum("sde,sd->se", V, G) / scale)
    if fixed is not None:
        step[fixed] = 0.0
    return step


def _dual_value(loss, reg, A, p, u, lam) -> float:
    """Fenchel dual -sum p_i g*(u_i) - (lam R)*(-A^T (p u)), u clipped to [-1, 0].

    g*(u) is u for hinge and the negative entropy (-u) ln(-u) + (1+u) ln(1+u)
    for logistic.  For l1 and l2, (lam R)* is the indicator of a dual-norm
    ball of radius lam, so u is first scaled into it; for l2sq it is
    |.|^2 / (4 lam).
    """
    from scipy.special import xlogy

    u = np.clip(u, -1.0, 0.0)
    z = (p * u) @ A
    penalty = 0.0
    if reg.kind == L2SQ:
        penalty = z @ z / (4.0 * lam)
    else:
        size = np.abs(z).max() if reg.kind == L1 else np.linalg.norm(z)
        if size > lam:
            u = u * (lam / size)
    conj = u if loss.kind == HINGE else xlogy(-u, -u) + xlogy(1.0 + u, 1.0 + u)
    return float(-(p @ conj) - penalty)


def sensitivity(samples: Coreset, instance: Instance, spec: ObjectiveSpec, x) -> np.ndarray:
    """Per-sample fractional contribution w_i g(<a_i, x>) / f(x); all NaN when f(x) = 0."""
    _, f = full_objective(instance, spec, x)
    if not f > 0.0:
        return np.full(len(samples), np.nan)
    return samples.w * eval_loss(spec.loss, samples.a @ np.asarray(x, dtype=float)) / f


def _ln(v: float) -> float:
    # sample-size formulas are asymptotic; clamp inner logs so small desk-scale
    # parameters cannot drive the estimate negative
    return max(1.0, math.log(v))


def recommended_sample_size(rule: str, loss: LossSpec, reg: RegSpec, k: float,
                            eps: float, delta: float, constants: Constants,
                            opt_hint: float | None = None, c_abs: float = 1.0,
                            uniform: bool = False) -> int:
    """Evaluate a sample-size rule with the hidden absolute constant set to c_abs.

    Rules: "norm" (general Lipschitz losses, any regularizer),
    "bounded-derivative" (|g'| <= g losses with l2sq), "l1" (l1 regularizer).
    With uniform=True the mass S is replaced by the norm bound D (D^2 for the
    bounded-derivative rule), matching plain uniform sampling.  Results are
    up to the theory's unstated constant.  Raises BudgetExceededError when
    the size is past float range.
    """
    if not (0 < eps < 1 and 0 < delta < 1):
        raise InvalidInputError("eps and delta must lie in (0, 1)")
    # squares are products, not **, so that a size past float range is inf and refused below
    L = constants.L
    if uniform:
        if constants.D is None:
            raise ApplicabilityError("uniform-sampling rule needs the norm bound D")
        S = constants.D * constants.D if rule == RULE_BOUNDED_DERIVATIVE else constants.D
    else:
        S = constants.S
    ln_delta = math.log(1.0 / delta)

    if rule == RULE_NORM:
        C = (S * L) * (S * L)
        if reg.kind == L2SQ:
            opt = opt_hint if opt_hint is not None else opt_lower_bound(
                loss, reg, k, L, constants.B)
            if not opt > 0:
                raise ApplicabilityError("the l2sq norm rule needs a positive OPT hint")
            m = C * k * ln_delta / (eps * eps * opt)
        else:
            m = C * k * k * ln_delta / (eps * eps)
    elif rule == RULE_BOUNDED_DERIVATIVE:
        if not loss.bounded_derivative:
            raise ApplicabilityError(
                f"the bounded-derivative rule needs |g'| <= g; {loss.kind} lacks it")
        if reg.kind != L2SQ:
            raise ApplicabilityError("the bounded-derivative rule applies to l2sq only")
        C = S * constants.B * L * L / loss.g0
        m = (C * k / (eps * eps)
             * _ln(C * k * ln_delta / eps) ** 3
             * _ln(_ln(S * L * k / loss.g0) / delta))
    elif rule == RULE_L1:
        if reg.kind != L1:
            raise ApplicabilityError("the l1 rule applies to the l1 regularizer only")
        C = S * L
        if loss.homogeneous:
            m = C * k * ln_delta / (eps * eps) * _ln(C * k * ln_delta / eps) ** 3
        else:
            m = (C * k / (eps * eps)
                 * _ln(C * k * ln_delta / eps) ** 3
                 * _ln(_ln(constants.B * L * k / eps) / delta))
    else:
        raise ApplicabilityError(f"unknown sample-size rule {rule!r}")
    m *= c_abs
    if not math.isfinite(m):
        raise BudgetExceededError(f"the {rule} rule's sample size {m} is past float range")
    return int(math.ceil(m))


def build_query_set(dim: int, k: float, seed: int,
                    n_gaussian: int = 100, n_sparse: int = 100) -> QuerySet:
    """Origin + random probes.

    Probes: n_gaussian unit directions at radii {0.1, 1, sqrt(k), k, 10k}
    and n_sparse random few-hot +-1 vectors.
    """
    rng = derive_rng(seed)
    queries = [np.zeros(dim)]
    tags = [TAG_ORIGIN]
    radii = [0.1, 1.0, math.sqrt(k), k, 10.0 * k]
    dirs = rng.standard_normal((n_gaussian, dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    for d in dirs:
        for r in radii:
            queries.append(r * d)
            tags.append(TAG_GAUSSIAN)
    for _ in range(n_sparse):
        support = rng.integers(1, min(5, dim) + 1)
        x = np.zeros(dim)
        pos = rng.choice(dim, size=support, replace=False)
        x[pos] = rng.choice([-1.0, 1.0], size=support)
        queries.append(x)
        tags.append(TAG_SPARSE)
    return QuerySet(np.vstack(queries), tuple(tags))


def save_queries(queries: QuerySet, path) -> None:
    """One {"x", "tag"} JSONL record per non-origin query (origin is implicit)."""
    _write_records(path, ({"x": x.tolist(), "tag": tag}
                          for x, tag in zip(queries.queries, queries.tags) if tag != TAG_ORIGIN))


def load_queries(path, dim: int) -> QuerySet:
    """Read save_queries's format: an "x" of dim entries and a JSON string "tag",
    "grid" if absent (see `model._read_records`); an empty file is the origin alone."""
    lines = _read_lines(path)
    if not lines:
        return QuerySet(np.zeros((1, dim)), (TAG_ORIGIN,))
    x, (tags,) = _read_records(path, lines, 1, "query", "x", dim, [("tag", str, TAG_GRID)])
    return QuerySet(x, tuple(tags))
