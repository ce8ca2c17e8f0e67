"""Reference computations made apart from regsamp, used to check its outputs.

Nothing here imports regsamp: losses, regularizers, file parsing, binomial
tails, coupon-collector moments, Wilson intervals and the reference minima
are all written out again from their definitions.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy.optimize import minimize
from scipy.special import expit
from scipy.stats import binom

G0 = {"logistic": math.log(2.0), "sigmoid": 0.5, "hinge": 1.0, "relu": 0.0}


def loss(kind: str, r: np.ndarray) -> np.ndarray:
    if kind == "logistic":
        return np.logaddexp(0.0, -r)
    if kind == "sigmoid":
        return expit(-r)
    if kind == "hinge":
        return np.maximum(0.0, 1.0 - r)
    if kind == "relu":
        return np.maximum(0.0, -r)
    raise ValueError(kind)


def reg(kind: str, X: np.ndarray) -> np.ndarray:
    """Regularizer of each row of X."""
    if kind == "l1":
        return np.abs(X).sum(axis=-1)
    if kind == "l2":
        return np.sqrt((X * X).sum(axis=-1))
    if kind == "l2sq":
        return (X * X).sum(axis=-1)
    raise ValueError(kind)


def close(a: float, b: float, rel: float = 1e-9, abs_tol: float = 1e-12) -> bool:
    return abs(a - b) <= max(rel * max(abs(a), abs(b)), abs_tol)


def read_jsonl(path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def read_instance(path) -> tuple[np.ndarray, np.ndarray]:
    recs = read_jsonl(path)
    atoms = np.array([r["a"] for r in recs[1:]], dtype=float)
    masses = np.array([r["p"] for r in recs[1:]], dtype=float)
    return atoms, masses


def read_csv(path) -> list[dict]:
    with open(path) as fh:
        lines = fh.read().splitlines()
    cols = lines[0].split(",")
    return [dict(zip(cols, line.split(","))) for line in lines[1:]]


def wilson(failures: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    p = failures / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2.0 * trials)) / denom
    half = z * math.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def loglog_slope(ks, ms) -> float:
    x = np.log(np.asarray(ks, dtype=float))
    y = np.log(np.asarray(ms, dtype=float))
    xc = x - x.mean()
    return float(xc @ (y - y.mean()) / (xc @ xc))


def lin_relu_bracket(k: int, eps: float, delta: float) -> tuple[int, int]:
    """Exact-binomial bracket (lo, hi) for the lin-relu minimal sample size.

    Each of the 2k atoms is drawn with probability 1/(2k); a trial fails when
    some count leaves mu +- 3 eps mu.  lo is the largest m whose single-atom
    tail alone exceeds 2 delta (any accepted m must lie above it); hi is twice
    the smallest m whose union bound over the 2k atoms is at most delta/4.
    """
    q = 1.0 / (2 * k)
    m = np.arange(1, 200 * k + 1)
    mu = m * q
    t = 3.0 * eps * mu
    tail = binom.sf(np.floor(mu + t), m, q) + binom.cdf(np.ceil(mu - t) - 1, m, q)
    lo = int(m[tail > 2.0 * delta].max())
    hi = 2 * int(m[2 * k * tail <= delta / 4.0].min())
    return lo, hi


def coupon_band(d: int, m: int, trials: int, alpha: float) -> tuple[int, int, float, float]:
    """Acceptance band for the number of trials that miss some atom.

    With X the number of atoms missed by m uniform draws over d atoms,
    E[X] = d (1-1/d)^m and E[X^2] = E[X] + d (d-1) (1-2/d)^m; the miss
    probability lies in [E[X]^2 / E[X^2], min(1, E[X])].  The band holds the
    failure counts with probability at least 1 - alpha on each side.
    """
    ex = d * math.exp(m * math.log1p(-1.0 / d))
    ex2 = ex + d * (d - 1) * math.exp(m * math.log1p(-2.0 / d))
    p_lo, p_hi = ex * ex / ex2, min(1.0, ex)
    lo = int(binom.ppf(alpha, trials, p_lo))
    hi = int(binom.isf(alpha, trials, p_hi)) if p_hi < 1.0 else trials
    return lo, hi, p_lo, p_hi


def objective_values(atoms, masses, loss_kind, reg_kind, k, X):
    """(f0, f) of the full objective at each row of X."""
    f0 = masses @ loss(loss_kind, atoms @ X.T)
    return f0, f0 + reg(reg_kind, X) / k


def analytic_lower(atoms, masses, loss_kind, reg_kind, k) -> float:
    """g(0)/(L B k), or g(0)^2/(4 (L B)^2 k) for l2sq, with L = 1 and B the mean norm."""
    g0 = G0[loss_kind]
    b = float(masses @ np.sqrt((atoms * atoms).sum(axis=1)))
    if reg_kind == "l2sq":
        return g0 * g0 / (4.0 * b * b * k)
    return g0 / (b * k)


def powell_minimum(atoms, masses, loss_kind, reg_kind, k, seed: int) -> float:
    """Best Powell minimum from the origin and three Gaussian starts of its own.

    Each start is restarted from its end point until a restart no longer
    improves, which frees Powell from most kinks of the nonsmooth losses.
    The value is attained at the returned point, so it bounds the true
    minimum from above.
    """
    def f(x):
        return float(masses @ loss(loss_kind, atoms @ x) + reg(reg_kind, x) / k)

    rng = np.random.default_rng([seed, 0x90E11])
    dim = atoms.shape[1]
    opts = {"xtol": 1e-10, "ftol": 1e-13, "maxfev": 200_000}
    best = math.inf
    for x0 in [np.zeros(dim)] + [rng.standard_normal(dim) for _ in range(3)]:
        res = minimize(f, x0, method="Powell", options=opts)
        x, val = res.x, float(res.fun)
        for _ in range(5):
            res = minimize(f, x, method="Powell", options=opts)
            if float(res.fun) >= val:
                break
            x, val = res.x, float(res.fun)
        best = min(best, val)
    return best
