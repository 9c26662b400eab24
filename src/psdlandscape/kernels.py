"""Dense linear-algebra primitives used throughout the package.

Factorizations are delegated to LAPACK via numpy; this module adds the
deterministic conventions the rest of the code relies on (singular-vector
sign canonicalization, symmetric-input guards, descending eigenvalue order).
"""

from __future__ import annotations

import math
import numbers
from typing import NamedTuple

import numpy as np

from .errors import InputContractError, NumericalFailure

__all__ = [
    "SvdResult",
    "EigResult",
    "thin_svd",
    "sym_eig",
    "sym_eigvals",
    "truncated_frob_norm",
    "procrustes_align",
    "check_matrix",
]


class SvdResult(NamedTuple):
    """Thin SVD ``A = U @ diag(sigma) @ V.T`` with canonicalized signs."""

    U: np.ndarray
    sigma: np.ndarray
    V: np.ndarray


class EigResult(NamedTuple):
    """Symmetric eigendecomposition with non-increasing eigenvalues."""

    U: np.ndarray
    lam: np.ndarray


def check_matrix(A: np.ndarray, name: str = "matrix", stack: bool = False) -> np.ndarray:
    """Validate a dense real matrix: 2-d, nonempty, all entries finite. With
    ``stack``, a stack of such matrices over leading axes is accepted too."""
    A = np.asarray(A, dtype=float)
    if (A.ndim < 2 if stack else A.ndim != 2) or A.size == 0:
        what = "array of matrices" if stack else "2-d array"
        raise InputContractError(f"{name} must be a nonempty {what}, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise InputContractError(f"{name} contains non-finite entries")
    return A


def _check_int(value, name: str, low: int) -> int:
    """Validate a count or seed: an integer, not a boolean, at least ``low``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise InputContractError(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)


#: spawn-key tags of the package's seeded streams (see :func:`_stream`)
_SCAN_POINT, _PROBES, _OPTIMIZE_START, _KICKS = range(4)


def _stream(seed: int, tag: int, *index: int) -> np.random.Generator:
    """The generator of consumer ``tag`` (at ``index``) under ``seed``,
    ``SeedSequence(seed, spawn_key=(tag, *index))``. A spawn key differs
    from every entropy-only sequence, so these streams share no draw with
    each other or with an instance's ``SeedSequence([seed, 0 | 1 | 2])``."""
    return np.random.default_rng(np.random.SeedSequence(int(seed), spawn_key=(tag, *index)))


def _json_float(value) -> float | None:
    """A JSON number (an int or a float, not a boolean or a string) as a
    float, infinite beyond the float range; ``None`` for anything else."""
    if type(value) not in (int, float):
        return None
    try:
        return float(value)
    except OverflowError:
        return math.inf


def _json_number(value, name: str, integer: bool = False) -> int | float:
    """A number read from a config or instance document: a JSON number (see
    :func:`_json_float`), finite and, in an integer field, integral; an
    ``int`` in an integer field (``4.0`` reads as ``4``), else a ``float``."""
    number = _json_float(value)
    if number is not None and math.isfinite(number) and (number.is_integer() or not integer):
        return int(value) if integer else number
    what = "an integer" if integer else "a finite number"
    raise InputContractError(f"{name} must be {what}, got {value!r}")


def _json_numbers(values, name: str) -> np.ndarray:
    """A list of finite JSON numbers from an instance document, as a float array."""
    floats = [_json_float(v) for v in values] if isinstance(values, list) else [None]
    if None in floats:
        raise InputContractError(f"{name} must be a list of numbers")
    if not all(map(math.isfinite, floats)):
        raise InputContractError(f"{name} contains non-finite entries")
    return np.array(floats)


def thin_svd(A: np.ndarray) -> SvdResult:
    """Thin singular value decomposition with deterministic signs.

    Each left singular vector is flipped so that its largest-magnitude
    entry (first such index on ties) is positive; the matching right
    vector is flipped with it, leaving the reconstruction unchanged.

    Parameters
    ----------
    A : ndarray of shape (p1, p2) or (k, p1, p2)
        Matrix, or stack of matrices, to factorize; must be finite. A stack
        makes one LAPACK call per matrix, and each result equals, bit for
        bit, that of the matrix on its own.

    Returns
    -------
    SvdResult
        ``U`` (..., p1, q), ``sigma`` (..., q) non-increasing, ``V``
        (..., p2, q), with ``q = min(p1, p2)``.
    """
    return _thin_svd(check_matrix(A, "svd input", stack=True))


def _thin_svd(A: np.ndarray) -> SvdResult:
    """:func:`thin_svd` of a finite float array, which is not checked again.
    The sign of each column is read at its first largest-magnitude entry,
    over every matrix of a stack at once."""
    try:
        U, s, Vt = np.linalg.svd(A, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"SVD did not converge for shape {A.shape[-2:]}") from exc
    V = Vt.swapaxes(-1, -2).copy()
    Uk = U.reshape(-1, *U.shape[-2:])
    q = Uk.shape[2]
    lead = Uk[np.arange(len(Uk))[:, None], abs(Uk).argmax(axis=1), np.arange(q)]
    sign = np.where(lead < 0, -1.0, 1.0).reshape(*U.shape[:-2], 1, q)
    U *= sign  # exact: a product with -1 or 1
    V *= sign
    return SvdResult(U, s, V)


def _scaled(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``A`` in units of ``2^e``, ``e`` the exponent of the largest ``|entry|``
    of each matrix of the stack ``A``, and the exponents ``e``. Scaling by a
    power of two is exact in binary, and sums of squares taken in these units
    do not overflow."""
    exponent = np.frexp(np.abs(A).max(axis=(-2, -1), initial=0.0))[1]
    return np.ldexp(A, -exponent[..., None, None]), exponent


def _dot_norms(A: np.ndarray) -> np.ndarray:
    """The Frobenius norm of each matrix of the stack ``A``, from one dot
    product of each flattened matrix, as ``np.linalg.norm`` takes it, with no
    array of the squares."""
    flat = A.reshape(*A.shape[:-2], 1, -1)
    return np.sqrt(np.atleast_1d((flat @ flat.swapaxes(-1, -2))[..., 0, 0]))


def _frob_norms(A: np.ndarray) -> np.ndarray:
    """The Frobenius norm of each matrix of the stack ``A``, taken in the units
    of :func:`_scaled`: equal, bit for bit, to ``np.linalg.norm`` of the matrix
    wherever no square over- or underflows in either unit, and finite wherever
    the norm is. An overflowing norm is ``inf``, with numpy's
    overflow warning unless the caller ignores it."""
    scaled, exponent = _scaled(A)
    return np.ldexp(_dot_norms(scaled), exponent)


def _sym_factorize(factorize, S: np.ndarray, asym_tol: float, stack: bool = False):
    """``factorize((S + S.T) / 2)`` of a finite square ``S`` within
    ``asym_tol`` of symmetric (see :func:`sym_eig`); with ``stack``, ``S``
    may be a stack of such matrices, each checked on its own."""
    S = check_matrix(S, "eig input", stack=stack)
    if S.shape[-2] != S.shape[-1]:
        raise InputContractError(f"eig input must be square, got {S.shape}")
    # the test is scale-free: both norms of each matrix are taken in the
    # unit of S, so that no sum of squares overflows
    scaled = _scaled(S)[0]
    nrm, asym = _dot_norms(scaled), _dot_norms(scaled - scaled.swapaxes(-1, -2))
    bad = asym > asym_tol * nrm
    if bad.any():
        raise InputContractError(
            "matrix is asymmetric beyond tolerance: ||S - S.T||_F / ||S||_F = "
            f"{asym[bad][0] / nrm[bad][0]:.3e}"
        )
    try:
        return factorize((S + S.swapaxes(-1, -2)) / 2.0)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigendecomposition failed for shape {S.shape[-2:]}") from exc


def sym_eig(S: np.ndarray, asym_tol: float = 1e-10) -> EigResult:
    """Eigendecomposition of a symmetric matrix, eigenvalues descending.

    The input is checked against ``asym_tol`` (relative Frobenius) and
    symmetrized as ``(S + S.T) / 2`` before factorization, which guards
    against asymmetry accumulated in Gram-type products.
    """
    lam, U = _sym_factorize(np.linalg.eigh, S, asym_tol)
    return EigResult(U[:, ::-1].copy(), lam[::-1].copy())


def sym_eigvals(S: np.ndarray, asym_tol: float = 1e-10) -> np.ndarray:
    """The eigenvalues of :func:`sym_eig`, descending, after the same checks,
    from a factorization that computes no eigenvectors. ``S`` may be a
    ``(k, q, q)`` stack: each matrix is checked on its own, one call
    factorizes them all, and row ``j`` equals, bit for bit, the
    eigenvalues of ``S[j]`` on its own."""
    return _sym_factorize(np.linalg.eigvalsh, S, asym_tol, stack=True)[..., ::-1].copy()


def truncated_frob_norm(A: np.ndarray, r: int) -> float:
    """Frobenius norm of the best rank-``r`` approximation of ``A``.

    Equals ``sqrt(sum_{i<=r} sigma_i(A)^2)``, the largest inner product of
    ``A`` with a unit-Frobenius matrix of rank at most ``r``.
    """
    A = check_matrix(A, "input")
    if not 1 <= r <= min(A.shape):
        raise InputContractError(f"r={r} out of range [1, {min(A.shape)}]")
    s = np.linalg.svd(A, compute_uv=False)
    return float(np.sqrt(np.sum(s[:r] ** 2)))


def _align(Y1: np.ndarray, Y2: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The orthogonal ``Q`` minimizing ``||Y2 @ Q - Y1||_F``, from the one SVD
    of the cross-Gram ``Y1.T @ Y2``: returns ``Q``, the singular values of
    the cross-Gram and whether ``Q`` is unique (the cross-Gram is
    nonsingular: its smallest singular value exceeds
    ``max(1e-10 sigma_1, 1e-300)``). A non-unique ``Q`` is the
    deterministic one of the canonicalized SVD. Either factor may be a
    ``(k, p, r)`` stack; the results are then stacks over ``k``."""
    QU, s, QV = thin_svd(Y1.swapaxes(-1, -2) @ Y2)
    unique = s[..., -1] > np.maximum(1e-10 * s[..., 0], 1e-300)
    return QV @ QU.swapaxes(-1, -2), s, unique


def procrustes_align(Y1: np.ndarray, Y2: np.ndarray) -> tuple[np.ndarray, float]:
    """Best orthogonal alignment of ``Y2`` onto ``Y1``.

    Returns ``(Q, residual)`` where ``Q`` minimizes ``||Y2 @ Q - Y1||_F``
    over orthogonal matrices and ``residual`` is the attained value. When
    ``Y1.T @ Y2`` is singular the minimizer is not unique; the one induced
    by the canonicalized SVD is returned deterministically.
    """
    Y1 = check_matrix(Y1, "Y1")
    Y2 = check_matrix(Y2, "Y2")
    if Y1.shape != Y2.shape:
        raise InputContractError(f"shape mismatch: {Y1.shape} vs {Y2.shape}")
    Q, _, _ = _align(Y1, Y2)
    residual = float(np.linalg.norm(Y2 @ Q - Y1))
    return Q, residual
