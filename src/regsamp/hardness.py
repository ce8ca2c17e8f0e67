"""Adversarial hard instances, their query sets, and deterministic failure predicates.

Two families:

  * quadratic-regime instances ("quad-*"): uniform support whose adversarial
    query depends on which half of the support a sample missed; checked by
    evaluating the relative error at the resolved query and at the origin.
  * linear-regime instances ("lin-*", "moment-curve"): per-atom queries whose
    failure reduces exactly to a deviation of the atom's sample count from
    its mean.  These use the score-only sampling convention (w = S/s).

All failure checks are count-based and deterministic given the sample.
Each kind is one entry of KINDS: its generator, whose signature is the
parameter schema, the regularizers it allows, its vectorised violation
function and the witness query of each violation.  `generate` checks
parameters against that schema; the gen_* functions trust their arguments.
"""

from __future__ import annotations

import inspect
import math
import numbers
from collections.abc import Callable, Mapping
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .errors import ApplicabilityError, ConfigurationError, ConstructionError, InvalidInputError
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
    make_loss,
    make_reg,
)
from .model import Instance, ObjectiveSpec, make_instance
from .objective import TAG_ADVERSARIAL, QuerySet
from .sampler import (
    MIXTURE,
    NORM_PLUS_1,
    SCORE_ONLY,
    Coreset,
    atom_probabilities,
    importance_weights,
    score_array,
)

QUAD_LOGISTIC = "quad-logistic"
QUAD_SIGMOID = "quad-sigmoid"
QUAD_HINGE = "quad-hinge"
QUAD_RELU = "quad-relu"
LIN_RELU = "lin-relu"
LIN_LOGISTIC = "lin-logistic"
LIN_SIGMOID = "lin-sigmoid"
COUPON_RELU = "coupon-relu"
MOMENT_CURVE = "moment-curve"

HARD_KINDS = (QUAD_LOGISTIC, QUAD_SIGMOID, QUAD_HINGE, QUAD_RELU,
              LIN_RELU, LIN_LOGISTIC, LIN_SIGMOID, COUPON_RELU, MOMENT_CURVE)


@dataclass(frozen=True, eq=False)
class HardInstance:
    instance: Instance
    spec: ObjectiveSpec
    queries: QuerySet
    kind: str
    params: dict

    @property
    def convention(self) -> str:
        return self.params["convention"]

    @property
    def score_kind(self) -> str:
        return self.params["score_kind"]

    @cached_property
    def probabilities(self) -> np.ndarray:
        """Per-atom sampling probabilities under the recorded score kind and convention."""
        return atom_probabilities(self.instance, self.score_kind, self.convention)


@dataclass(frozen=True, eq=False)
class FailureVerdict:
    failed: bool
    witness_query: np.ndarray | None = None
    counts: np.ndarray | None = None
    threshold: float | None = None

    def __post_init__(self):
        if self.failed and self.witness_query is None:
            raise InvalidInputError("a failure verdict must carry a witness query")


def _basis(d: int, j: int) -> np.ndarray:
    e = np.zeros(d)
    e[j] = 1.0
    return e


# ---------------------------------------------------------------------------
# generators: quadratic regime
# ---------------------------------------------------------------------------

def _gen_quad_basis(loss: LossSpec, k: float, eps: float, d_formula: float,
                    kind: str, scale: float, c_const: float) -> HardInstance:
    d = max(2, math.ceil(d_formula))
    inst = make_instance(np.eye(d))
    spec = ObjectiveSpec(loss=loss, reg=make_reg(L2), k=float(k))
    h = d // 2
    x = np.zeros(d)
    x[:h] = 1.0
    queries = QuerySet(x[None, :], (TAG_ADVERSARIAL,))
    params = {"k": float(k), "eps": float(eps), "d": d, "half": h,
              "scale": scale, "c": c_const,
              "score_kind": NORM_PLUS_1, "convention": MIXTURE}
    return HardInstance(inst, spec, queries, kind, params)


def gen_quad_logistic(k: float, eps: float) -> HardInstance:
    """Uniform basis vectors in d = ceil(2 (k ln2 / 40 eps)^2), logistic + l2."""
    if not 0 < eps <= 0.1:
        raise InvalidInputError("eps must lie in (0, 1/10]")
    loss = make_loss(LOGISTIC)
    d_formula = 2.0 * (k * math.log(2.0) / (40.0 * eps)) ** 2
    c_const = math.log(1.0 + math.exp(-1.0)) / (2.0 * math.log(2.0))
    return _gen_quad_basis(loss, k, eps, d_formula, QUAD_LOGISTIC,
                           scale=1.0 / math.log(2.0), c_const=c_const)


def gen_quad_sigmoid(k: float, eps: float) -> HardInstance:
    """Sigmoid variant: d = ceil(2 ((k/2) / 50 eps)^2), scale 1/g(0) = 2."""
    if not 0 < eps <= 0.1:
        raise InvalidInputError("eps must lie in (0, 1/10]")
    loss = make_loss(SIGMOID)
    d_formula = 2.0 * ((k / 2.0) / (50.0 * eps)) ** 2
    c_const = 1.0 / (1.0 + math.e)
    return _gen_quad_basis(loss, k, eps, d_formula, QUAD_SIGMOID,
                           scale=2.0, c_const=c_const)


def gen_quad_hinge(k: float, eps: float, reg: str = L2SQ) -> HardInstance:
    """Atoms v_j = e_d + e_j/sqrt(2), adversarial x = e_d - sum e_i/sqrt((d-1)/2)."""
    if not 0 < eps <= 0.25:
        raise InvalidInputError("eps must lie in (0, 1/4]")
    d = math.ceil((k / (6.0 * eps)) ** 2) + 1
    d = max(3, d)
    atoms = np.zeros((d - 1, d))
    atoms[:, d - 1] = 1.0
    atoms[np.arange(d - 1), np.arange(d - 1)] = 1.0 / math.sqrt(2.0)
    inst = make_instance(atoms)
    spec = ObjectiveSpec(loss=make_loss(HINGE), reg=make_reg(reg), k=float(k))
    h = (d - 1) // 2
    x = np.zeros(d)
    x[d - 1] = 1.0
    x[:h] = -1.0 / math.sqrt(h)
    queries = QuerySet(x[None, :], (TAG_ADVERSARIAL,))
    params = {"k": float(k), "eps": float(eps), "d": d, "half": h, "reg": reg,
              "score_kind": NORM_PLUS_1, "convention": MIXTURE}
    return HardInstance(inst, spec, queries, QUAD_HINGE, params)


def gen_quad_relu(k: float, eps: float, reg: str = L2SQ) -> HardInstance:
    """Uniform basis vectors in d = ceil((k/6 eps)^2), query on the missed half.

    The construction's stated regularizer value at the adversarial query is 1
    for both l2 and l2sq; that nominal value is recorded and used by the
    failure predicate, making the failing relative error exactly
    3 eps/(1 + 3 eps).
    """
    if not 0 < eps <= 0.25:
        raise InvalidInputError("eps must lie in (0, 1/4]")
    d = max(2, math.ceil((k / (6.0 * eps)) ** 2))
    inst = make_instance(np.eye(d))
    spec = ObjectiveSpec(loss=make_loss(RELU), reg=make_reg(reg), k=float(k))
    h = d // 2
    x = np.zeros(d)
    x[:h] = -1.0 / math.sqrt(d)
    queries = QuerySet(x[None, :], (TAG_ADVERSARIAL,))
    params = {"k": float(k), "eps": float(eps), "d": d, "half": h, "reg": reg,
              "reg_nominal": 1.0, "score_kind": NORM_PLUS_1, "convention": MIXTURE}
    return HardInstance(inst, spec, queries, QUAD_RELU, params)


# ---------------------------------------------------------------------------
# generators: linear regime
# ---------------------------------------------------------------------------

def gen_lin_relu(k: int, reg: str = L1) -> HardInstance:
    """Mass 1/(2k) on the signed basis vectors of R^k; one isolating query per atom."""
    if k < 2:
        raise InvalidInputError("k must be >= 2")
    atoms = np.vstack([np.eye(k), -np.eye(k)])
    inst = make_instance(atoms)
    spec = ObjectiveSpec(loss=make_loss(RELU), reg=make_reg(reg), k=float(k))
    s = score_array(NORM_PLUS_1, atoms)
    plus_mass = float(s[:k].sum())
    minus_mass = float(s[k:].sum())
    sigma = 1 if plus_mass <= minus_mass else -1
    queries = QuerySet(-atoms, tuple(TAG_ADVERSARIAL for _ in range(2 * k)))
    params = {"k": float(k), "sigma": sigma, "reg": reg,
              "score_kind": NORM_PLUS_1, "convention": SCORE_ONLY}
    return HardInstance(inst, spec, queries, LIN_RELU, params)


def _gen_lin_smooth(loss_kind: str, k: int, reg: str, alpha: float,
                    factor: float, kind: str) -> HardInstance:
    atoms = np.hstack([np.eye(k), np.ones((k, 1))])
    inst = make_instance(atoms)
    spec = ObjectiveSpec(loss=make_loss(loss_kind), reg=make_reg(reg), k=float(k))
    queries = np.zeros((k, k + 1))
    for j in range(k):
        queries[j, j] = -2.0 * alpha
        queries[j, k] = alpha
    qset = QuerySet(queries, tuple(TAG_ADVERSARIAL for _ in range(k)))
    params = {"k": float(k), "alpha": alpha, "reg": reg, "threshold_factor": factor,
              "score_kind": NORM_PLUS_1, "convention": SCORE_ONLY}
    return HardInstance(inst, spec, qset, kind, params)


def gen_lin_logistic(k: int, reg: str = L1) -> HardInstance:
    """Atoms e_i + e_{k+1}; queries alpha(-2 e_j + e_{k+1}) with g(alpha) k = 1."""
    if k < 4:
        raise InvalidInputError("k must be >= 4")
    alpha = math.log(1.0 / (math.exp(1.0 / k) - 1.0))
    p = 1 if reg == L1 else 2
    factor = 2.0 + 10.0 * alpha ** (p - 1)
    return _gen_lin_smooth(LOGISTIC, k, reg, alpha, factor, LIN_LOGISTIC)


def gen_lin_sigmoid(k: int, reg: str = L1) -> HardInstance:
    """Sigmoid variant: alpha = ln(k-1), again g(alpha) k = 1."""
    if k < 4:
        raise InvalidInputError("k must be >= 4")
    alpha = math.log(k - 1.0)
    p = 1 if reg == L1 else 2
    factor = 4.0 + 20.0 * alpha ** p
    return _gen_lin_smooth(SIGMOID, k, reg, alpha, factor, LIN_SIGMOID)


def gen_coupon_relu(d: int, k: float) -> HardInstance:
    """Uniform basis vectors; query -alpha * e_{i*} on a missed index, alpha = 2k/(3d).

    The minus sign makes the missed atom's relu margin -alpha, so the exact
    loss at the query is alpha/d + alpha^2/k while any sample missing the
    atom evaluates to the bare regularizer.
    """
    if d < 2:
        raise InvalidInputError("d must be >= 2")
    inst = make_instance(np.eye(d))
    spec = ObjectiveSpec(loss=make_loss(RELU), reg=make_reg(L2SQ), k=float(k))
    alpha = 2.0 * k / (3.0 * d)
    queries = QuerySet((-alpha * _basis(d, 0))[None, :], (TAG_ADVERSARIAL,))
    params = {"k": float(k), "d": d, "alpha": alpha,
              "score_kind": NORM_PLUS_1, "convention": MIXTURE}
    return HardInstance(inst, spec, queries, COUPON_RELU, params)


def isolating_direction(atoms: np.ndarray, j: int, warm_start=None,
                        max_iters: int = 5000) -> np.ndarray:
    """Direction x with <a_j, x> <= -1 and <a_i, x> >= 0 for all i != j.

    Tries the warm start first, then minimizes the hinge infeasibility by
    subgradient descent.  The returned direction is verified against the
    sign pattern; an interior point (not a hull vertex) raises.
    """
    atoms = np.asarray(atoms, dtype=float)
    n = atoms.shape[0]
    others = np.delete(np.arange(n), j)

    def finish(x):
        margins = atoms @ x
        x = x / abs(margins[j])
        margins = atoms @ x
        if not (margins[j] < 0 and np.all(margins[others] >= -1e-12)):
            raise ConstructionError("isolating direction failed sign-pattern verification")
        return x

    if warm_start is not None:
        x = np.asarray(warm_start, dtype=float)
        margins = atoms @ x
        if margins[j] < 0 and np.all(margins[others] >= 0):
            return finish(x / abs(margins[j]))

    a_j = atoms[j]
    nrm = float(np.dot(a_j, a_j))
    if nrm == 0.0:
        raise ConstructionError("cannot isolate the zero vector")
    x = -a_j / nrm
    slack = 1e-6
    for t in range(1, max_iters + 1):
        margins = atoms @ x
        if margins[j] <= -1.0 and np.all(margins[others] >= slack):
            return finish(x)
        grad = np.zeros_like(x)
        if margins[j] > -1.0:
            grad += a_j
        viol = others[margins[others] < slack]
        if viol.size:
            grad -= atoms[viol].sum(axis=0)
        x = x - (1.0 / math.sqrt(t)) * grad
    raise ConstructionError(f"no isolating direction found for atom {j}")


def gen_moment_curve(N: int, d: int, t_values: list[float] | None = None,
                     k: float | None = None) -> HardInstance:
    """Atoms on the moment curve (1, t, ..., t^d) with verified per-atom isolation.

    Every atom is a vertex of the convex hull, so each has a unit direction
    x_j with <a_j, x_j> < 0 and <a_i, x_j> >= 0.  Queries are eta * x_j for
    eta in {1, 1e-3, 1e-6}.
    """
    if not (N >= d + 1 >= 3):
        raise InvalidInputError("need N >= d + 1 >= 3")
    if t_values is None:
        t_values = np.arange(1.0, N + 1.0)
    t_values = np.asarray(t_values, dtype=float)
    if t_values.shape != (N,) or np.unique(t_values).size != N:
        raise InvalidInputError("t_values must be N distinct reals")
    atoms = np.vander(t_values, d + 1, increasing=True)
    inst = make_instance(atoms)
    kk = float(k) if k is not None else float(N)
    spec = ObjectiveSpec(loss=make_loss(RELU), reg=make_reg(L2SQ), k=kk)
    etas = (1.0, 1e-3, 1e-6)
    directions = np.zeros((N, d + 1))
    c_vals = np.zeros(N)
    queries = []
    for j in range(N):
        gaps = np.abs(t_values - t_values[j])
        gamma = float(gaps[gaps > 0].min())
        warm = np.zeros(d + 1)
        warm[0] = t_values[j] ** 2 - (gamma / 2.0) ** 2
        warm[1] = -2.0 * t_values[j]
        warm[2] = 1.0
        x = isolating_direction(atoms, j, warm_start=warm)
        x = x / np.linalg.norm(x)
        margins = atoms @ x
        if not (margins[j] < 0 and np.all(np.delete(margins, j) >= -1e-12)):
            raise ConstructionError(f"moment-curve isolation failed for atom {j}")
        directions[j] = x
        c_vals[j] = -margins[j]
        for eta in etas:
            queries.append(eta * x)
    qset = QuerySet(np.vstack(queries),
                    tuple(TAG_ADVERSARIAL for _ in range(len(queries))))
    params = {"k": kk, "N": N, "d": d, "t_values": t_values,
              "directions": directions, "c_values": c_vals, "etas": etas,
              "score_kind": NORM_PLUS_1, "convention": SCORE_ONLY}
    return HardInstance(inst, spec, qset, MOMENT_CURVE, params)


def reduction_scale(loss: LossSpec, reg: RegSpec, x, beta: float) -> np.ndarray:
    """Scale a failure witness by beta, transferring it from the relu limit.

    Valid for losses with g(beta t)/beta -> relu(-t) (logistic, hinge) under
    degree-1 homogeneous regularizers.
    """
    if loss.kind not in (LOGISTIC, HINGE):
        raise ApplicabilityError("the scaling reduction applies to logistic and hinge")
    if reg.homogeneity_degree != 1:
        raise ApplicabilityError("the scaling reduction needs a degree-1 regularizer")
    if not beta > 0:
        raise InvalidInputError("beta must be positive")
    return beta * np.asarray(x, dtype=float)


# ---------------------------------------------------------------------------
# failure predicates
# ---------------------------------------------------------------------------

def _counts_from_samples(hard: HardInstance, samples: Coreset) -> tuple[np.ndarray, float, int]:
    inst = hard.instance
    idx, w_given = samples.idx, samples.w
    if np.any(idx < 0) or np.any(idx >= inst.n):
        raise ConfigurationError("sample indexes an atom outside the instance")
    s = score_array(hard.score_kind, inst.atoms)
    # the reference mass the first sample's weight implies
    if hard.convention == MIXTURE:
        w0 = float(w_given[0])
        if not 0 < w0 < 2:
            raise ConfigurationError("mixture weights must lie in (0, 2)")
        s_ref = float(s[idx[0]]) * w0 / (2.0 - w0)
    else:
        s_ref = float(w_given[0]) * float(s[idx[0]])
    expected = importance_weights(s[idx], s_ref, hard.convention)
    if not np.allclose(w_given, expected, rtol=1e-9, atol=1e-12):
        raise ConfigurationError(
            f"sample weights do not match the {hard.convention} convention")
    counts = np.bincount(idx, minlength=inst.n)
    return counts, float(w_given.mean()), len(samples)


def _quad_errors(hard: HardInstance, counts: np.ndarray, mean_w: np.ndarray, m: int):
    """Per-trial (err_x, err_0) for the quadratic constructions.

    counts is (trials, n), mean_w (trials,); err_0 is NaN where the origin is
    flagged (relu: f(0) = 0).
    """
    inst, spec, params = hard.instance, hard.spec, hard.params
    n = inst.n
    h = params["half"]
    k = spec.k
    J = np.argsort(counts, axis=1, kind="stable")[:, :h]
    # quadratic constructions have equal scores, so every sample weight equals
    # the per-trial mean weight (canonical or estimate-rescaled alike)
    cw = counts * mean_w[:, None]
    cw_J = np.take_along_axis(cw, J, axis=1).sum(axis=1)
    cw_tot = cw.sum(axis=1)
    g = lambda r: float(eval_loss(spec.loss, r))

    if hard.kind in (QUAD_LOGISTIC, QUAD_SIGMOID):
        g_hit, g_zero = g(1.0), g(0.0)
        f0_x = (h * g_hit + (n - h) * g_zero) / n
        f_x = f0_x + math.sqrt(h) / k
        f0hat_x = (cw_J * g_hit + (cw_tot - cw_J) * g_zero) / m
        err_0 = np.abs(1.0 - mean_w)
    elif hard.kind == QUAD_HINGE:
        g_iso = 1.0 / math.sqrt(2.0 * h)
        f0_x = (h / n) * g_iso
        reg_val = 2.0 if params["reg"] == L2SQ else math.sqrt(2.0)
        f_x = f0_x + reg_val / k
        f0hat_x = cw_J * g_iso / m
        err_0 = np.abs(1.0 - mean_w)
    elif hard.kind == QUAD_RELU:
        g_iso = 1.0 / math.sqrt(n)
        f0_x = (h / n) * g_iso
        f_x = f0_x + params["reg_nominal"] / k
        f0hat_x = cw_J * g_iso / m
        err_0 = np.full(counts.shape[0], np.nan)
    else:
        raise ConfigurationError(f"{hard.kind} has no quadratic adversarial error")
    return np.abs(f0_x - f0hat_x) / f_x, err_0


# A kind's violation function maps (hard, counts (trials, n), mean_w (trials,),
# m, eps) to per-trial, per-candidate `bad` flags and per-candidate thresholds;
# its witness builder maps (hard, counts (n,), candidate) to the query at which
# that candidate's failure shows.

def _quad_violations(hard, counts, mean_w, m, eps):
    """Candidate 0: the query on the least-sampled half; candidate 1: the origin."""
    err_x, err_0 = _quad_errors(hard, counts, mean_w, m)
    return np.stack([err_x > eps, err_0 > eps], axis=1), np.full(2, eps)


def _quad_witness(hard, counts, j):
    if j == 1:
        return np.zeros(hard.instance.dim)
    # the generator isolates atoms 0..h-1 (coordinates 0..h-1 of its query);
    # move that half onto the least-sampled atoms
    query = hard.queries.queries[1]
    x = query.copy()
    x[:hard.instance.n] = 0.0
    x[np.argsort(counts, kind="stable")[:hard.params["half"]]] = query[0]
    return x


def _count_deviation(hard, counts, mean_w, m, eps, width):
    """Candidate j: atom j's isolating query; fails when |count_j - mu_j| > width eps mu_j."""
    mu = m * hard.probabilities
    thresh = width * eps * mu
    return np.abs(counts - mu) > thresh, thresh


def _lin_smooth_violations(hard, counts, mean_w, m, eps):
    """Candidate 0: the origin (mean weight off 1 by more than eps); candidate
    j >= 1: atom j-1's query (count at least mu + eps mu factor)."""
    mu = m * hard.probabilities
    t = eps * mu * hard.params["threshold_factor"]
    bad = np.hstack([(np.abs(mean_w - 1.0) > eps)[:, None], counts >= mu + t])
    return bad, np.concatenate([[eps], t])


def _coupon_violations(hard, counts, mean_w, m, eps):
    """Candidate j: the query -alpha e_j; fails when atom j is missed and the
    relative error at that query exceeds eps."""
    alpha, d, k = hard.params["alpha"], hard.params["d"], hard.params["k"]
    err = (alpha / d) / (alpha / d + alpha * alpha / k)
    return (counts == 0) & (err > eps), np.full(counts.shape[1], eps)


@dataclass(frozen=True)
class Kind:
    """One hard construction.  The generator's signature is the parameter
    schema: its names and annotations are what `generate` accepts."""
    gen: Callable[..., HardInstance]
    regs: tuple[str, ...]  # the values a `reg` parameter may take
    violations: Callable[..., tuple[np.ndarray, np.ndarray]]
    witness: Callable[[HardInstance, np.ndarray, int], np.ndarray]


KINDS = {
    QUAD_LOGISTIC: Kind(gen_quad_logistic, (), _quad_violations, _quad_witness),
    QUAD_SIGMOID: Kind(gen_quad_sigmoid, (), _quad_violations, _quad_witness),
    QUAD_HINGE: Kind(gen_quad_hinge, (L2, L2SQ), _quad_violations, _quad_witness),
    QUAD_RELU: Kind(gen_quad_relu, (L2, L2SQ), _quad_violations, _quad_witness),
    LIN_RELU: Kind(gen_lin_relu, (L1, L2), partial(_count_deviation, width=3.0),
                   lambda hard, counts, j: -hard.instance.atoms[j]),
    # candidate j is row j of the query set: the origin, then atom j-1's query
    LIN_LOGISTIC: Kind(gen_lin_logistic, (L1, L2SQ), _lin_smooth_violations,
                       lambda hard, counts, j: hard.queries.queries[j].copy()),
    LIN_SIGMOID: Kind(gen_lin_sigmoid, (L1, L2SQ), _lin_smooth_violations,
                      lambda hard, counts, j: hard.queries.queries[j].copy()),
    COUPON_RELU: Kind(gen_coupon_relu, (), _coupon_violations,
                      lambda hard, counts, j: -hard.params["alpha"] * _basis(hard.instance.n, j)),
    MOMENT_CURVE: Kind(gen_moment_curve, (), partial(_count_deviation, width=1.0),
                       lambda hard, counts, j: hard.params["directions"][j]),
}
HARD_KINDS = tuple(KINDS)


def _kind(kind: str) -> Kind:
    if not isinstance(kind, str) or kind not in KINDS:
        raise ConfigurationError(f"unknown hard-instance kind {kind!r}")
    return KINDS[kind]


def kind_params(kind: str) -> Mapping[str, inspect.Parameter]:
    """The parameters `generate` takes for `kind`, from its generator's signature."""
    return inspect.signature(_kind(kind).gen).parameters


def _integer(value) -> int:
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise TypeError
    return int(value)


def _real(value) -> float:
    if not isinstance(value, numbers.Real) or isinstance(value, bool) \
            or not math.isfinite(value):
        raise TypeError
    return float(value)


def _text(value) -> str:
    if not isinstance(value, str):
        raise TypeError
    return value


def _listed(convert, value) -> list:
    if not isinstance(value, (list, tuple, np.ndarray)):
        raise TypeError
    return [convert(v) for v in value]


# each annotation a parameter may carry: its converter and its name in errors
PARAM_TYPES = {
    "int": (_integer, "an integer"),
    "float": (_real, "a finite real number"),
    "str": (_text, "a string"),
    "list[int]": (partial(_listed, _integer), "a list of integers"),
    "list[float]": (partial(_listed, _real), "a list of finite real numbers"),
}


def typed(name: str, value, annotation: str):
    """value converted to `annotation` (a PARAM_TYPES key, optionally "| None").

    JSON ints pass where a (finite) real is expected and integral reals where
    an int is; bools pass as neither.  Raises InvalidInputError naming `name`.
    """
    if annotation.endswith(" | None") and value is None:
        return None
    convert, what = PARAM_TYPES[annotation.removesuffix(" | None")]
    try:
        return convert(value)
    except TypeError:
        raise InvalidInputError(f"{name!r} must be {what}, got {value!r}") from None


def generate(kind: str, **params) -> HardInstance:
    """Build a `kind` hard instance from parameters checked against its schema.

    Names come from the generator's signature, types from its annotations
    (see `typed`) and `reg` from the kind's allowed values; a bad parameter
    raises InvalidInputError naming it.
    """
    entry = _kind(kind)
    signature = inspect.signature(entry.gen)
    try:
        bound = signature.bind(**params).arguments
        args = {name: typed(name, value, signature.parameters[name].annotation)
                for name, value in bound.items()}
    except (TypeError, InvalidInputError) as exc:
        raise InvalidInputError(f"{kind}: {exc}") from None
    if "reg" in args and args["reg"] not in entry.regs:
        raise InvalidInputError(f"{kind} supports the {' and '.join(entry.regs)} regularizers")
    return entry.gen(**args)


def batch_failed(hard: HardInstance, counts: np.ndarray, mean_w, m: int,
                 eps: float) -> np.ndarray:
    """Vectorized failure predicate over trials.

    counts: (trials, n) sample counts; mean_w: (trials,) per-trial mean weight.
    """
    counts = np.atleast_2d(counts)
    mean_w = np.atleast_1d(np.asarray(mean_w, dtype=float))
    bad, _ = _kind(hard.kind).violations(hard, counts, mean_w, m, eps)
    return bad.any(axis=1)


def adversarial_relative_error(hard: HardInstance, samples: Coreset) -> tuple[float, float]:
    """(relative error at the resolved adversarial query, error at the origin).

    Quadratic-regime kinds only; the origin error is NaN where the origin is
    flagged (relu).  The quad-relu denominator uses the construction's
    nominal regularizer value, so a sample missing the isolated half yields
    exactly 3 eps / (1 + 3 eps).
    """
    counts, mean_w, m = _counts_from_samples(hard, samples)
    err_x, err_0 = _quad_errors(hard, counts[None, :], np.array([mean_w]), m)
    return float(err_x[0]), float(err_0[0])


def check_failure(hard: HardInstance, samples: Coreset, eps: float) -> FailureVerdict:
    """Evaluate the instance-specific failure predicate on a drawn sample.

    The verdict carries the first violated candidate's query and threshold,
    or the largest threshold when none is violated.  Samples must have been
    drawn under the convention the instance records; mismatched weights
    raise a configuration error.
    """
    counts, mean_w, m = _counts_from_samples(hard, samples)
    entry = _kind(hard.kind)
    bad, thresh = entry.violations(hard, counts[None, :], np.array([mean_w]), m, eps)
    violated = np.flatnonzero(bad[0])
    if violated.size == 0:
        return FailureVerdict(False, None, counts, float(thresh.max()))
    j = int(violated[0])
    return FailureVerdict(True, entry.witness(hard, counts, j), counts, float(thresh[j]))


def load_hard_instance(manifest_path) -> HardInstance:
    """Rebuild a hard instance from a generation manifest.

    Regeneration re-runs every construction-time verification (dimension
    formulas, isolation sign patterns), so a loaded instance is re-checked.
    """
    import json

    with open(manifest_path) as fh:
        manifest = json.load(fh)
    config = manifest.get("config", manifest)
    kind, params = config["kind"], config["params"]
    return generate(kind, **{name: params[name] for name in kind_params(kind)
                             if name in params})
