"""Pulse-to-pulse correlation models and their spectral decompositions.

Correlation matrices here are unit-diagonal symmetric Toeplitz (trace M).
The Gauss-Markov family [C]_mn = rho^|m-n| is the default; an arbitrary
first row is also accepted.  The effective and diagonal models read only
spectra, which ``toeplitz_spectra`` computes from first rows by a
half-size split without eigenvectors.  The eigen decomposition
C = R^T diag(gamma) R, rows of R eigenvectors, is formed only where a
rotation is read: the steady-target weights and the sampler's loading
matrix L = sqrt(diag(gamma)) R with C = L^T L.  The DMG model needs only
the effective looks.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidCorrelation,
    InvalidLooks,
    NegativeEigenvalue,
    NoConvergence,
    check_integer,
)

# Eigenvalues above -PSD_TOL*M are treated as rounding noise and clamped to 0.
PSD_TOL = 1e-10
# Matrix entries per stacked eigvalsh call of toeplitz_spectra.
_EIG_CHUNK = 1 << 16


@dataclass(frozen=True)
class CorrelationSpec:
    """Declarative description of an M x M pulse correlation matrix."""

    kind: str                    # "gauss-markov" | "toeplitz"
    M: int
    rho: float = 0.0             # gauss-markov coefficient
    row: tuple = ()              # toeplitz first row, row[0] == 1

    @staticmethod
    def gauss_markov(rho: float, M: int) -> "CorrelationSpec":
        if not 0.0 <= rho <= 1.0:
            raise InvalidCorrelation(f"gauss-markov rho {rho} outside [0, 1]")
        check_integer("M", M, 1)
        return CorrelationSpec("gauss-markov", int(M), float(rho))

    @staticmethod
    def toeplitz(row) -> "CorrelationSpec":
        row = tuple(float(x) for x in row)
        if len(row) < 1 or row[0] != 1.0:
            raise InvalidCorrelation("toeplitz first row must start with 1")
        if any(abs(x) > 1.0 for x in row):
            raise InvalidCorrelation("toeplitz entries must lie in [-1, 1]")
        return CorrelationSpec("toeplitz", len(row), 0.0, row)

    @property
    def is_identity(self) -> bool:
        if self.kind == "gauss-markov":
            return self.rho == 0.0
        return all(x == 0.0 for x in self.row[1:])

    @property
    def is_all_ones(self) -> bool:
        if self.kind == "gauss-markov":
            return self.rho == 1.0
        return all(x == 1.0 for x in self.row)

    def first_row(self) -> np.ndarray:
        if self.kind == "gauss-markov":
            return self.rho ** np.arange(self.M, dtype=float)
        return np.asarray(self.row, dtype=float)


@dataclass(frozen=True)
class EigenSystem:
    """Spectral factorization C = R^T diag(eigenvalues) R, eigenvalues ascending.

    Rows of ``rotation`` are eigenvectors.  The identity matrix, whose
    rotation is free, gets R = I; whether a scenario is uncorrelated is
    asked of its ``CorrelationSpec``, and a consumer that needs another
    rotation there substitutes it (the sampler's target loading does).
    """

    eigenvalues: np.ndarray
    rotation: np.ndarray


def build_matrix(spec: CorrelationSpec) -> np.ndarray:
    """Realize the symmetric Toeplitz matrix; unit diagonal, trace M."""
    row = spec.first_row()
    idx = np.abs(np.subtract.outer(np.arange(spec.M), np.arange(spec.M)))
    C = row[idx]
    if spec.kind == "toeplitz" and not (spec.is_identity or spec.is_all_ones):
        low = _split_eigvalsh(row[None]).min()
        if low < -PSD_TOL * spec.M:
            raise InvalidCorrelation(
                f"toeplitz row produces min eigenvalue {low:.3e} (not PSD)")
    return C


def _fix_signs(R: np.ndarray) -> np.ndarray:
    # Largest-magnitude component of each eigenvector made positive (first
    # index wins ties); legal because the model is invariant under per-row
    # sign flips of the loading matrix.
    R = R.copy()
    lead = np.argmax(np.abs(R), axis=1)
    flip = R[np.arange(R.shape[0]), lead] < 0
    R[flip] *= -1.0
    return R


def _helmert(M: int) -> np.ndarray:
    """Orthonormal basis whose last row is the constant vector 1/sqrt(M)."""
    R = np.zeros((M, M))
    for k in range(1, M):
        R[k - 1, :k] = 1.0
        R[k - 1, k] = -k
        R[k - 1] /= math.sqrt(k * (k + 1))
    R[M - 1] = 1.0 / math.sqrt(M)
    return R


def gauss_markov_limit_basis(M: int) -> np.ndarray:
    """Eigenbasis of the Gauss-Markov family in the rho -> 0+ limit.

    The matrix I + rho T (T the first off-diagonal band) has the discrete
    sine modes as eigenvectors for every rho > 0; rows are returned in
    ascending-eigenvalue order (descending frequency).  This is the
    right-continuous rotation convention for an exactly uncorrelated spec,
    where the spectrum is degenerate and the eigenbasis otherwise arbitrary.
    """
    j = np.arange(1, M + 1)
    m = np.arange(M, 0, -1)
    R = np.sqrt(2.0 / (M + 1)) * np.sin(np.outer(m, j) * np.pi / (M + 1))
    return _fix_signs(R)


def eigen_decompose(matrix: np.ndarray) -> EigenSystem:
    """Eigen decomposition with ascending eigenvalues and deterministic signs.

    Exact degenerate inputs (identity, all-ones) bypass the generic solver:
    the identity keeps R = I, and the rank-one all-ones matrix gets the
    Helmert basis with the constant eigenvector carrying eigenvalue M.
    """
    matrix = np.asarray(matrix, dtype=float)
    M = matrix.shape[0]
    if matrix.shape != (M, M):
        raise DimensionMismatch(f"expected square matrix, got {matrix.shape}")

    if np.array_equal(matrix, np.eye(M)):
        return EigenSystem(np.ones(M), np.eye(M))
    if np.array_equal(matrix, np.ones((M, M))):
        vals = np.zeros(M)
        vals[-1] = float(M)
        return EigenSystem(vals, _fix_signs(_helmert(M)))

    try:
        vals, vecs = np.linalg.eigh(matrix)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - pathological
        raise NoConvergence(f"eigen solver failed: {exc}") from exc
    if vals[0] < -PSD_TOL * M:
        raise NegativeEigenvalue(
            f"min eigenvalue {vals[0]:.3e} below clamping tolerance")
    vals = np.clip(vals, 0.0, None)
    return EigenSystem(vals, _fix_signs(vecs.T))


@functools.lru_cache(maxsize=8)
def _split(M):
    """m = M // 2 and the index arrays and border weights of the split."""
    m, i = M // 2, np.arange((M + 1) // 2)[:, None]
    w = np.where(i < m, 1.0, math.sqrt(0.5))   # odd M: the border
    return m, np.abs(i - i.T), M - 1 - i - i.T, w * w.T


def _split_eigvalsh(rows) -> np.ndarray:
    """The eigenvalues, unsorted and unclipped, of the symmetric Toeplitz
    matrices with first rows ``rows``, a (count, M) stack, by the split
    described in ``toeplitz_spectra``."""
    M = rows.shape[1]
    m, A, H, w = _split(M)
    per = max(1, _EIG_CHUNK // A.size)
    got = np.empty(rows.shape)
    for k in range(0, rows.shape[0], per):
        a, h = rows[k:k + per, A], rows[k:k + per, H]
        got[k:k + per, :m] = np.linalg.eigvalsh((a - h)[:, :m, :m])
        got[k:k + per, m:] = np.linalg.eigvalsh((a + h) * w)
    return got


def toeplitz_spectra(rows) -> np.ndarray:
    """Ascending eigenvalues, clipped at 0, of the symmetric Toeplitz
    matrices with unit-diagonal first rows ``rows``, a (count, M) stack; no
    eigenvectors.

    With m = M // 2, A_ij = r_|i-j| and H_ij = r_(M-1-i-j), the spectrum of
    first row r is that of the m x m blocks A - H and A + H, the latter
    bordered for odd M by sqrt(2) r_(m-i) and r_0 (Cantoni & Butler, Linear
    Algebra Appl. 13, 1976, on centrosymmetric matrices).  The identity and
    the all-ones matrix get the exact spectra ``eigen_decompose`` gives.
    """
    rows = np.asarray(rows, dtype=float)
    M = rows.shape[1]
    got = np.clip(np.sort(_split_eigvalsh(rows), axis=1), 0.0, None)
    got[~rows[:, 1:].any(axis=1)] = 1.0
    ones = (rows == 1.0).all(axis=1)
    got[ones] = 0.0
    got[ones, -1] = M
    return got


def loading_matrix(es: EigenSystem) -> np.ndarray:
    """L = sqrt(diag(gamma)) R, so that L^T L reconstructs the matrix."""
    if np.any(es.eigenvalues < 0.0):
        raise NegativeEigenvalue("loading matrix requires a PSD spectrum")
    return np.sqrt(es.eigenvalues)[:, None] * es.rotation


def effective_looks(C: np.ndarray) -> float:
    """M^2 / Tr{C^2}: decorrelation-equivalent number of independent pulses."""
    C = np.asarray(C, dtype=float)
    M = C.shape[0]
    return M * M / float(np.sum(C * C))


def cross_looks(Cc: np.ndarray, Cs: np.ndarray) -> float:
    """M^2 / Tr{Cc Cs} for the clutter/target cross term."""
    Cc = np.asarray(Cc, dtype=float)
    Cs = np.asarray(Cs, dtype=float)
    if Cc.shape != Cs.shape:
        raise DimensionMismatch(f"shape mismatch {Cc.shape} vs {Cs.shape}")
    M = Cc.shape[0]
    return M * M / float(np.sum(Cc * Cs.T))


def dmg_spectrum(looks: float, M: int) -> tuple[float, np.ndarray]:
    """Simplified one-spike spectrum matching a given effective-looks value.

    Returns (rho_eff, eigenvalues ascending) with eigenvalues
    (1-rho', ..., 1-rho', 1-rho'+M rho'); satisfies sum(gamma) = M and
    M^2/sum(gamma^2) = looks.
    """
    if not 1.0 <= looks <= M + 1e-12:
        raise InvalidLooks(f"looks {looks} outside [1, {M}]")
    looks = min(looks, float(M))
    if M == 1:
        return 0.0, np.ones(1)
    rho_eff = math.sqrt(max(M / looks - 1.0, 0.0) / (M - 1))
    gam = np.full(M, 1.0 - rho_eff)
    gam[-1] += M * rho_eff
    return rho_eff, gam
