"""The four classification losses and three regularizers, with structural metadata.

Losses are monotone non-increasing and nonnegative:

    logistic  g(r) = ln(1 + exp(-r)) = log1p(exp(-|r|)) - min(r, 0)
    sigmoid   g(r) = 1 / (1 + exp(r))
    hinge     g(r) = max(0, 1 - r)
    relu      g(r) = max(0, -r)

Each loss carries its tight Lipschitz constant, the constant used in
sample-size formulas (clamped to >= 1), g(0), whether |g'| <= g holds
everywhere, and whether g is positively homogeneous.  Logistic values are the
split form on numpy's vector `exp` and `log1p`, which neither overflows nor
cancels.  `expit` is imported only where a sigmoid or logistic value needs it,
so that the relu and hinge paths, and the CLI's start, load no scipy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .sampler import _row_norms

LOGISTIC = "logistic"
SIGMOID = "sigmoid"
HINGE = "hinge"
RELU = "relu"

L1 = "l1"
L2 = "l2"
L2SQ = "l2sq"

LOSS_KINDS = (LOGISTIC, SIGMOID, HINGE, RELU)
REG_KINDS = (L1, L2, L2SQ)


@dataclass(frozen=True)
class LossSpec:
    kind: str
    lipschitz_tight: float
    lipschitz_formula: float
    g0: float
    bounded_derivative: bool
    homogeneous: bool


@dataclass(frozen=True)
class RegSpec:
    kind: str
    homogeneity_degree: int


_LOSSES = {
    LOGISTIC: LossSpec(LOGISTIC, 1.0, 1.0, float(np.log(2.0)), True, False),
    SIGMOID: LossSpec(SIGMOID, 0.25, 1.0, 0.5, True, False),
    HINGE: LossSpec(HINGE, 1.0, 1.0, 1.0, False, False),
    RELU: LossSpec(RELU, 1.0, 1.0, 0.0, False, True),
}

_REGS = {
    L1: RegSpec(L1, 1),
    L2: RegSpec(L2, 1),
    L2SQ: RegSpec(L2SQ, 2),
}


def make_loss(kind: str) -> LossSpec:
    try:
        return _LOSSES[kind]
    except KeyError:
        raise InvalidInputError(f"unknown loss kind {kind!r}") from None


def make_reg(kind: str) -> RegSpec:
    try:
        return _REGS[kind]
    except KeyError:
        raise InvalidInputError(f"unknown regularizer kind {kind!r}") from None


def eval_loss(loss: LossSpec, r, out=None):
    """Evaluate g(r) for scalars or arrays, in place in one result array.

    Logistic is log1p(exp(-|r|)) - min(r, 0): no overflow or cancellation at
    any r.  The result array is a new one, and r is left as it was, unless
    out is given: an array of r's shape, not r itself, that g(r) is written
    to and returned.  r, then a float array, is scratch: logistic takes
    min(r, 0) in place in it, so that no second array of r's size is made."""
    r = np.asarray(r, dtype=float)
    v = np.empty_like(r) if out is None else out
    if loss.kind == LOGISTIC:
        np.abs(r, out=v)
        np.negative(v, out=v)
        np.exp(v, out=v)
        np.log1p(v, out=v)
        v -= np.minimum(r, 0.0, out=None if out is None else r)
    elif loss.kind == SIGMOID:
        from scipy.special import expit

        np.negative(r, out=v)
        expit(v, out=v)
    elif loss.kind == HINGE:
        np.subtract(1.0, r, out=v)
        np.maximum(0.0, v, out=v)
    elif loss.kind == RELU:
        np.negative(r, out=v)
        np.maximum(0.0, v, out=v)
    else:
        raise InvalidInputError(f"unknown loss kind {loss.kind!r}")
    return v if v.ndim else float(v)


def eval_loss_derivative(loss: LossSpec, r):
    """Evaluate g'(r); at hinge r=1 and relu r=0 kinks returns the left derivative -1."""
    r = np.asarray(r, dtype=float)
    if loss.kind == LOGISTIC:
        from scipy.special import expit

        v = -expit(-r)
    elif loss.kind == SIGMOID:
        from scipy.special import expit

        v = -expit(r) * expit(-r)
    elif loss.kind == HINGE:
        v = np.where(r <= 1.0, -1.0, 0.0)
    elif loss.kind == RELU:
        v = np.where(r <= 0.0, -1.0, 0.0)
    else:
        raise InvalidInputError(f"unknown loss kind {loss.kind!r}")
    return v if v.ndim else float(v)


def check_bounded_derivative(loss: LossSpec, grid) -> bool:
    """True iff |g'(r)| <= g(r) + 1e-12 at every grid point."""
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise InvalidInputError("grid must be nonempty")
    g = np.asarray(eval_loss(loss, grid))
    gp = np.abs(np.asarray(eval_loss_derivative(loss, grid)))
    return bool(np.all(gp <= g + 1e-12))


def decompose(loss: LossSpec):
    """Split g = h + b with h positively homogeneous and b bounded.

    logistic/hinge: h(r) = max(0, -r), b = g - h in [0, g(0)]; logistic's b is
    `eval_loss`'s own log1p(exp(-|r|)), so h + b equals g bit for bit.
    sigmoid: h = 0, b = g in [0, 1] (no homogeneous h gets b under g(0)).
    relu: h = g, b = 0.
    """

    def relu_part(r):
        r = np.asarray(r, dtype=float)
        v = np.maximum(0.0, -r)
        return v if v.ndim else float(v)

    def zero_part(r):
        r = np.asarray(r, dtype=float)
        v = np.zeros_like(r)
        return v if v.ndim else float(v)

    if loss.kind == RELU:
        return (lambda r: eval_loss(loss, r)), zero_part
    if loss.kind == SIGMOID:
        return zero_part, (lambda r: eval_loss(loss, r))
    if loss.kind == LOGISTIC:
        def b(r):
            r = np.asarray(r, dtype=float)
            v = np.log1p(np.exp(-np.abs(r)))
            return v if v.ndim else float(v)

        return relu_part, b
    if loss.kind == HINGE:
        def b(r):
            r = np.asarray(r, dtype=float)
            v = np.clip(1.0 - r, 0.0, 1.0)
            return v if v.ndim else float(v)

        return relu_part, b
    raise InvalidInputError(f"unknown loss kind {loss.kind!r}")


def eval_regularizer(reg: RegSpec, x):
    """R(x) for R in {l1, l2, l2sq}; row-wise for a 2-D array of queries.

    l2 is `sampler._row_norms`: np.linalg.norm's bits, and finite where the
    squares of a finite norm overflow."""
    x = np.asarray(x, dtype=float)
    if reg.kind == L1:
        v = np.sum(np.abs(x), axis=-1)
    elif reg.kind == L2:
        v = _row_norms(x.reshape(-1, x.shape[-1])).reshape(x.shape[:-1])
    elif reg.kind == L2SQ:
        v = np.sum(x * x, axis=-1)
    else:
        raise InvalidInputError(f"unknown regularizer kind {reg.kind!r}")
    return v if v.ndim else float(v)
