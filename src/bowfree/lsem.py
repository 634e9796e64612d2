"""Linear SEM algebra: parameter sets, the forward covariance map,
covariances and their files.

A model is the pair (lam, omega): edge weights on the directed part and the
noise covariance on the bidirected part. The observational covariance is

    sigma = (I - lam)^{-T} @ omega @ (I - lam)^{-1}

computed through one linear solve: taken in a topological order, I - lam
is unit upper triangular, so the solve is plain back-substitution.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DefinitenessError, IngestionError, OrderingError, PatternError, SampleSizeError
from .graphs import MixedGraph, _json_type
from .linalg import pow2_rows, symmetrize

PATTERN_ATOL = 1e-9


@dataclass(frozen=True)
class ParamSet:
    """Edge-weight matrix and noise covariance with structural zero patterns."""

    lam: np.ndarray
    omega: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lam", np.asarray(self.lam, dtype=float))
        object.__setattr__(self, "omega", np.asarray(self.omega, dtype=float))


@dataclass(frozen=True)
class ReducedCovariance:
    """sigma[a, b] = factor[a] * factor[b] * base[..., head[a], head[b]], kept
    implicit. ``sig[..., rows, cols]`` gathers entries in the dense matrix's
    operation order, so they equal its entries bitwise; ``sigma`` builds it."""

    base: np.ndarray
    head: np.ndarray
    factor: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "base", symmetrize(np.asarray(self.base, dtype=float)))

    @property
    def shape(self) -> tuple[int, ...]:
        return self.base.shape[:-2] + (len(self.head),) * 2

    @property
    def ndim(self) -> int:
        return self.base.ndim

    def __getitem__(self, key) -> np.ndarray:
        _, rows, cols = key  # (..., rows, cols)
        return (self.factor[rows] * self.factor[cols]) * self.base[..., self.head[rows], self.head[cols]]

    @property
    def sigma(self) -> np.ndarray:
        idx = np.arange(len(self.head))
        return self[..., idx[:, None], idx]


def as_matrix(sigma) -> np.ndarray:
    if isinstance(sigma, ReducedCovariance):
        return sigma.sigma
    return np.asarray(sigma, dtype=float)


def gatherable(sigma):
    """``sigma`` indexable as ``sig[..., rows, cols]``, a reduced one kept implicit."""
    return sigma if isinstance(sigma, ReducedCovariance) else as_matrix(sigma)


def _checked_covariance(sigma, n: int, stack: bool = False):
    """gatherable(sigma) once it is one n x n covariance, or with ``stack`` a
    (T, n, n) stack, of finite entries: OrderingError for another shape,
    ConfigError for a non-finite entry. Every entry point taking a
    covariance checks it here."""
    sig = gatherable(sigma)
    if sig.ndim not in ((2, 3) if stack else (2,)) or sig.shape[-2:] != (n, n):
        raise OrderingError(f"covariance shape {sig.shape} does not match n={n}")
    if not np.isfinite(sig.base if isinstance(sig, ReducedCovariance) else sig).all():
        raise ConfigError("covariance has non-finite entries")
    return sig


def dag_inverse(g: MixedGraph, lam: np.ndarray) -> np.ndarray:
    """(I - lam)^{-1} by one solve in the topological order of g, where
    I - lam is unit upper triangular: the LU factorisation does not pivot,
    the solve is back-substitution and its cost does not depend on depth."""
    lam = np.asarray(lam, dtype=float)
    order = g.topological_order()
    block = np.ix_(order, order)
    inv = np.empty_like(lam)
    inv[block] = np.linalg.solve(np.eye(g.n) - lam[block], np.eye(g.n))
    return inv


def check_pattern(g: MixedGraph, params: ParamSet):
    """Raise PatternError when (lam, omega) do not fit g: wrong shapes,
    non-finite entries, or weight above PATTERN_ATOL off the zero patterns
    of g. The message names the first offending entry 1-based."""
    lam, omega = params.lam, params.omega
    if lam.shape != (g.n, g.n) or omega.shape != (g.n, g.n):
        raise PatternError(
            f"parameter shapes {lam.shape}, {omega.shape} do not match n={g.n}"
        )
    if not (np.isfinite(lam).all() and np.isfinite(omega).all()):
        raise PatternError("lambda and omega must be finite")
    allowed = np.zeros((g.n, g.n), dtype=bool)
    allowed[g.source, g.target] = True
    off = np.abs(lam) > PATTERN_ATOL
    if np.any(off & ~allowed):
        where = np.argwhere(off & ~allowed) + 1
        raise PatternError(f"lambda has weight on non-edges, e.g. {tuple(where[0].tolist())}")

    if not np.allclose(omega, omega.T, atol=PATTERN_ATOL):
        raise PatternError("omega must be symmetric")
    allowed_om = np.eye(g.n, dtype=bool)
    us, vs = g.pairs.T
    allowed_om[us, vs] = allowed_om[vs, us] = True
    off_om = np.abs(omega) > PATTERN_ATOL
    if np.any(off_om & ~allowed_om):
        where = np.argwhere(off_om & ~allowed_om) + 1
        raise PatternError(f"omega is nonzero off the bidirected pattern, e.g. {tuple(where[0].tolist())}")


def forward_map(g: MixedGraph, params: ParamSet) -> np.ndarray:
    """Observational covariance of the model (lam, omega) on graph g.

    Verifies the zero patterns and that omega is positive semidefinite,
    then evaluates the congruence through the triangular solve of
    ``dag_inverse`` and symmetrizes the result; ConfigError when it is not
    finite, as when large weights overflow. Eigenvalues are computed
    only when Cholesky fails, as for a singular semidefinite omega.
    """
    check_pattern(g, params)
    omega = symmetrize(params.omega)
    try:
        np.linalg.cholesky(omega)
    except np.linalg.LinAlgError:
        eigs = np.linalg.eigvalsh(omega)
        if eigs[0] < -PATTERN_ATOL * max(1.0, float(eigs[-1])):
            raise DefinitenessError("omega must be positive semidefinite") from None
    inv = dag_inverse(g, params.lam)
    with np.errstate(over="ignore", invalid="ignore"):
        sigma = symmetrize(inv.T @ params.omega @ inv)
    if not np.isfinite(sigma).all():
        raise ConfigError("the model's covariance has non-finite entries")
    return sigma


@np.errstate(over="ignore", invalid="ignore")  # a covariance out of range is non-finite, which its users reject
def sample_covariance(x: np.ndarray, normalize_rows: bool = False) -> np.ndarray:
    """Empirical covariance of observation rows (mean-centered, divisor m-1).

    With ``normalize_rows`` every observation is first scaled to unit
    2-norm, after an exact power-of-two scaling where its squares would
    leave the float range; zero rows are left untouched.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise SampleSizeError(f"observation matrix must be 2-d, got shape {x.shape}")
    m = x.shape[0]
    if m < 2:
        raise SampleSizeError(f"need at least 2 observations, got {m}")
    if normalize_rows:
        norms = np.sqrt(np.add.reduce(x * x, axis=1, keepdims=True))  # np.linalg.norm's bits, without its checks
        if not (2.0**-480 < norms.min() and norms.max() < 2.0**500):  # squares out of range, or a zero row
            x = np.where((2.0**-480 < norms) & (norms < 2.0**500), x, pow2_rows(x)[0])
            norms = np.sqrt(np.add.reduce(x * x, axis=1, keepdims=True))
        x = np.where(norms > 0, x / np.where(norms == 0, 1.0, norms), x)
    centered = x - x.mean(axis=0, keepdims=True)
    return symmetrize(centered.T @ centered / (m - 1))


# -- serialization ---------------------------------------------------------


def save_matrix_csv(a: np.ndarray, fh):
    """Write ``a`` as CSV, one row at a time, to the open binary file ``fh``."""
    np.savetxt(fh, np.asarray(a, dtype=float), delimiter=",")


def _read_csv(path) -> np.ndarray:
    """A non-empty 2-d array of finite numbers; IngestionError otherwise.
    The loaders below add their own shape rules."""
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")  # reported below
            a = np.loadtxt(path, delimiter=",", ndmin=2, dtype=float)
    except ValueError as exc:
        raise IngestionError(f"{path}: not a numeric CSV matrix: {exc}") from exc
    if a.size == 0:
        raise IngestionError(f"{path}: no numbers in the CSV file")
    if not np.isfinite(a).all():
        raise IngestionError(f"{path}: matrix has non-finite entries")
    return a


def load_matrix_csv(path) -> np.ndarray:
    """A square matrix of finite numbers; IngestionError otherwise."""
    a = _read_csv(path)
    if a.shape[0] != a.shape[1]:
        raise IngestionError(f"{path}: matrix of shape {a.shape} is not square")
    return a


def load_covariance_csv(path) -> np.ndarray:
    """load_matrix_csv, then symmetry to 1e-10 of the largest entry and no
    eigenvalue below -1e-10 of the largest magnitude; IngestionError otherwise.
    Eigenvalues are computed only when Cholesky fails, so a singular
    semidefinite covariance, such as a saved reduced one, loads."""
    a = load_matrix_csv(path)
    asym = np.max(np.abs(a - a.T))
    if asym > 1e-10 * np.max(np.abs(a)):
        raise IngestionError(f"{path}: covariance is not symmetric (max |a - a.T| = {asym:.3g})")
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        eigs = np.linalg.eigvalsh(a)
        if eigs[0] < -1e-10 * np.max(np.abs(eigs)):
            raise IngestionError(
                f"{path}: covariance is not positive semidefinite (smallest eigenvalue {eigs[0]:.3g})"
            ) from None
    return a


def params_bytes(params: ParamSet) -> bytes:
    """The parameter document load_params reads."""
    return (json.dumps({"lambda": params.lam.tolist(), "omega": params.omega.tolist()}, sort_keys=True) + "\n").encode()


def load_params(path) -> ParamSet:
    """Parameters as params_bytes encodes them; IngestionError naming the
    invalid JSON, the missing object or key, the key whose value is not a
    2-d array of numbers, or non-finite entries. check_pattern checks shapes."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh, parse_int=float)  # an integer beyond the float range reads as inf
    # UnicodeDecodeError: bytes that are not UTF-8; RecursionError: arrays nested past the parser's depth
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise IngestionError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise IngestionError(f'{path}: expected an object with "lambda" and "omega", got {_json_type(doc)}')
    for key in ("lambda", "omega"):
        if key not in doc:
            raise IngestionError(f'{path}: missing key "{key}"')
        rows = doc[key]
        if not (isinstance(rows, list) and all(isinstance(r, list) and len(r) == len(rows[0]) for r in rows)
                and all(type(x) is float for r in rows for x in r)):
            raise IngestionError(f'{path}: "{key}" must be a 2-d array of numbers')
    params = ParamSet(doc["lambda"], doc["omega"])
    if not (np.isfinite(params.lam).all() and np.isfinite(params.omega).all()):
        raise IngestionError(f"{path}: parameters have non-finite entries")
    return params
