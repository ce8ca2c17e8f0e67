"""Core data model: finite weighted instances, objective configuration, derived constants.

A distribution over data vectors is represented by a finite set of atoms
a_i in R^d with masses p_i summing to one.  The regularized objective is

    f(x) = sum_i p_i g(<a_i, x>) + R(x) / k

for a loss g, regularizer R in {l1, l2, l2sq} and strength parameter k >= 1.
"""

from __future__ import annotations

import gc
import json
import math
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import sampler as _sampler
from .errors import BudgetExceededError, DataError, DegenerateInstanceError, InvalidInputError
from .losses import LossSpec, RegSpec

MASS_TOL = 1e-12
# most cells of an atom matrix a hard construction builds (256 MB of float64)
MAX_DENSE_CELLS = 2 ** 25
# vector entries a JSONL reader converts at once, a few hundred KB as Python objects
RECORD_CELLS = 2 ** 12


class Instance:
    """Atoms a_i in R^d with positive masses p_i summing to one; both read-only.

    `Instance(atoms, masses)` holds a dense (n, d) atom matrix.  The basis
    constructions of `hardness` make theirs with `Instance.on_demand`: such
    an instance keeps n, d, the masses and one representative row, builds
    `atoms` only on first access, and takes `margins` a block of rows at a
    time without them.  Its per-atom norms, which are all the sampling law
    reads of the atoms, come from that row, so sampling, failure rates and
    the m* search never build the (n, d) matrix.
    """

    def __init__(self, atoms, masses):
        atoms = np.asarray(atoms, dtype=float)
        if atoms.ndim != 2 or atoms.shape[0] == 0 or atoms.shape[1] == 0:
            raise InvalidInputError("atoms must be a nonempty (n, d) array")
        self._setup(masses, *atoms.shape, atoms)
        self._atoms, self._row = atoms, None

    @classmethod
    def on_demand(cls, build: Callable[[int, int], np.ndarray], masses, row) -> "Instance":
        """The instance whose atoms lo..hi-1 `build(lo, hi)` makes on request.

        Every row of those atoms must hold the same multiset of entries as
        `row`, so that a per-row reduction of `row` gives every row's bits;
        the basis constructions' rows have at most two nonzero entries, whose
        sum rounds the same in any order.
        """
        row = np.asarray(row, dtype=float)
        inst = cls.__new__(cls)
        inst._setup(masses, np.size(masses), row.size, row)
        inst._atoms, inst._row, inst._build = None, row, build
        return inst

    def _setup(self, masses, n: int, dim: int, rows: np.ndarray) -> None:
        masses = np.asarray(masses, dtype=float)
        if masses.shape != (n,):
            raise InvalidInputError("masses must have one entry per atom")
        if not np.all(np.isfinite(rows)):
            raise InvalidInputError("atom coordinates must be finite")
        if not np.all(masses > 0):
            raise InvalidInputError("every mass must be positive")
        if abs(float(masses.sum()) - 1.0) > MASS_TOL:
            raise InvalidInputError("masses must sum to 1 within 1e-12")
        rows.setflags(write=False)
        masses.setflags(write=False)
        self.masses, self.n, self.dim = masses, n, dim
        self._norms: np.ndarray | None = None

    @property
    def atoms(self) -> np.ndarray:
        """The (n, d) atom matrix, built here on an on-demand instance's first access.

        Raises BudgetExceededError, before building, past MAX_DENSE_CELLS cells.
        """
        if self._atoms is None:
            dense_budget(self.n, self.dim)
            atoms = np.asarray(self._build(0, self.n), dtype=float)
            atoms.setflags(write=False)
            self._atoms = atoms
        return self._atoms

    def margins(self, X: np.ndarray) -> np.ndarray:
        """The (n, len(X)) margins A X^T of every atom at the query rows of X.

        Built atoms take one product.  An on-demand instance that has not
        built its atoms builds and multiplies a block of rows of about
        `sampler.BLOCK_CELLS` cells at a time, and no block of one row, which
        numpy would multiply as a matrix-vector product: a basis row's one or
        two nonzero entries then give each margin the bits of one product.
        """
        if self._atoms is not None:
            return self._atoms @ X.T
        out, rows = np.empty((self.n, len(X))), max(2, _sampler.BLOCK_CELLS // self.dim)
        lo = 0
        while lo < self.n:
            hi = self.n if self.n - lo <= rows + 1 else lo + rows
            out[lo:hi] = self._build(lo, hi) @ X.T
            lo = hi
        return out

    def norms(self) -> np.ndarray:
        """Per-atom Euclidean norms, computed once and read-only: np.linalg.norm's
        bits where they are finite and at least 2^-500, exact where that
        norm overflows or its squares underflow (`sampler._row_norms`).  An
        on-demand instance takes its row's norm."""
        if self._norms is None:
            rows = self.atoms if self._row is None else self._row[None, :]
            self._norms = np.resize(_sampler._row_norms(rows), self.n)  # an on-demand row's n times
            self._norms.setflags(write=False)
        return self._norms


def dense_budget(n: int, dim: int, what: str = "atoms") -> None:
    """Raise BudgetExceededError when n vectors (atoms, or what) in R^dim exceed
    MAX_DENSE_CELLS cells."""
    if n * dim > MAX_DENSE_CELLS:
        raise BudgetExceededError(f"{n} x {dim} {what} take {n * dim * 8 / 2**20:.0f} MB dense, "
                                  f"more than the {MAX_DENSE_CELLS * 8 // 2**20} MB budget")


def scale_exponent(atoms: np.ndarray) -> int:
    """The least e >= 0 with every |entry| / 2^e below 1.

    Dividing by 2^e is exact, so ordinary entries keep every bit, and the
    squares of the scaled entries cannot overflow; entries below 1 are left
    as they are.
    """
    return max(0, int(np.frexp(np.abs(atoms).max())[1]))


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


def compute_constants(instance: Instance, score: str, loss: LossSpec) -> Constants:
    """Derived scalars: B (mean norm, squared for squared-norm scores), S, D, g(0), L.

    Raises DegenerateInstanceError when S, which is at least B, overflows float range.
    """
    norms, p = instance.norms(), instance.masses
    d_max = float(norms.max())
    with np.errstate(over="ignore"):
        b = float(p @ (norms ** 2 if score in (_sampler.SQNORM_PLUS_2, _sampler.UNIFORM_D2)
                       else norms))
        s_mass = float(p @ _sampler._scores(score, instance.norms, instance.n, D=d_max))
    if not math.isfinite(s_mass):
        raise DegenerateInstanceError(f"the {score} score mass overflows at D = {d_max:.6g}")
    return Constants(L=loss.lipschitz_formula, B=b, S=s_mass, g0=loss.g0, D=d_max)


def save_instance(instance: Instance, path) -> None:
    """Write JSON Lines: a {"dim", "n"} header, then one {"a", "p"} record per atom."""
    atoms = instance.atoms  # built, or refused, before the file is opened
    _write_records(path, chain([{"dim": instance.dim, "n": instance.n}],
                               ({"a": a.tolist(), "p": p}
                                for a, p in zip(atoms, instance.masses.tolist()))))


def load_instance(path) -> Instance:
    """Read save_instance's format: a header of positive JSON integers "dim" and
    "n", then n records of dim entries "a" and a mass "p" (see `_read_records`)."""
    lines = _read_lines(path)
    if not lines:
        raise DataError(f"{path}: empty instance file")
    try:
        header = _object(lines[0])
        dim, n = header["dim"], header["n"]
    except _MALFORMED:
        dim = n = None
    if type(dim) is not int or type(n) is not int:  # bools are not counts
        raise DataError(f"{path}: line 1: malformed header")
    if dim < 1 or n < 1:
        raise DataError(f"{path}: line 1: dim and n must be positive, got {dim} and {n}")
    if len(lines) - 1 != n:
        raise DataError(f"{path}: header announces {n} atoms, found {len(lines) - 1}")
    atoms, (masses,) = _read_records(path, lines[1:], 2, "atom", "a", dim, [("p", float)])
    try:
        return Instance(atoms, masses)
    except InvalidInputError as exc:
        raise DataError(f"{path}: {exc}") from None


# The one JSONL writer and reader of all three formats; what a bad record raises:
_MALFORMED = (KeyError, TypeError, ValueError, OverflowError, RecursionError)
_DECODER = json.JSONDecoder()
_NUMBER_TYPES = {int, float}  # what json.loads makes of a JSON number


def _write_records(path, records: Iterable[dict]) -> None:
    with open(path, "w") as fh:
        fh.writelines(json.dumps(rec) + "\n" for rec in records)


def _read_lines(path) -> list[str]:
    """The stripped lines of a UTF-8 file; bytes that are not UTF-8 raise a DataError
    naming their line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len((data[:exc.start].decode("utf-8") + ".").splitlines())
        raise DataError(f"{path}: line {line}: not UTF-8 text") from None
    return [line.strip() for line in text.splitlines()]


def _object(line: str) -> dict:
    """The one JSON object a line holds; a blank line, or anything else, raises."""
    rec, end = _DECODER.raw_decode(line)
    if end != len(line) or type(rec) is not dict:
        raise ValueError("a record is one JSON object on a line of its own")
    return rec


def _numbers(values: Iterable) -> None:
    """Raises TypeError unless every value is a JSON number: an int or a float,
    not a bool, which Python counts as an int, nor a string float() would read."""
    if not set(map(type, values)) <= _NUMBER_TYPES:
        raise TypeError("a JSON number was expected")


def _column(recs: list[dict], key: str, kind: type, *default) -> np.ndarray:
    """Field key of each record, exactly a JSON number (kind float), int or str; a
    missing field takes the default if one is given, and is otherwise malformed."""
    values = [rec.get(key, *default) for rec in recs]
    if kind is float:
        _numbers(values)
        return np.array([float(v) for v in values])
    if not all(type(v) is kind for v in values):
        raise TypeError(f"{key!r} must be a JSON {kind.__name__}")
    return np.array(values, dtype=np.int64 if kind is int else object)


def _read_records(path, lines: list[str], start: int, what: str, vector: str,
                  dim: int | None, fields) -> tuple[np.ndarray, list[np.ndarray]]:
    """The vectors and field columns of the nonempty stripped lines, line `start` on.

    Each line is one JSON object: `vector` holds dim finite JSON numbers (dim
    None: the first record's count) and `fields` are (key, kind, *default) for
    `_column`.  Records are converted in blocks of at most RECORD_CELLS
    entries, and a block that fails again line by line, to name the bad line.

    Automatic garbage collection is paused for the length of the parse, in the
    whole process, and then restored to what it was.  JSON records hold no
    reference cycles, so a collection during the parse frees nothing; yet each
    record allocates a dict and a list, each collection walks the young
    objects, and every few files one walks the whole heap.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        out, lo, single_until = None, 0, 0
        while lo < len(lines):
            rows = 1 if not dim or lo < single_until else max(1, RECORD_CELLS // dim)
            try:
                recs = [_object(line) for line in lines[lo:lo + rows]]
                # a non-number entry, or a nested, non-array or ragged vector, raises
                raw = [rec[vector] for rec in recs]
                _numbers(chain.from_iterable(raw))
                vecs = np.array(raw, dtype=float)
                if vecs.ndim != 2 or not np.isfinite(vecs).all():
                    raise ValueError(f"{vector!r} must be an array of finite numbers")
                cols = [_column(recs, *field) for field in fields]
            except _MALFORMED:
                vecs = None
            if dim is None and vecs is not None:
                dim = vecs.shape[1]
            if vecs is None or vecs.shape[1] != dim:
                if rows > 1:
                    single_until = lo + rows
                    continue
                raise DataError(f"{path}: line {start + lo}: " + (
                    f"malformed {what} record" if vecs is None
                    else f"{what} has dimension {vecs.shape[1]}, expected {dim}"))
            if out is None:  # a converted block, not a header alone, vouches for the sizes
                out = [np.empty((len(lines), *col.shape[1:]), col.dtype) for col in (vecs, *cols)]
            for whole, col in zip(out, (vecs, *cols)):
                whole[lo:lo + len(col)] = col
            lo += len(vecs)
        return out[0], out[1:]
    finally:
        if was_enabled:
            gc.enable()
