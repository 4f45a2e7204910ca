import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gammaclutter import corrmodel as cm
from gammaclutter.errors import (
    DimensionMismatch,
    InvalidCorrelation,
    InvalidLooks,
)

from oracles import (cubic_eigenvalues_gm3, gm_effective_looks_closed_form,
                     gm_matrix, reconstruct, trace_product)


def test_build_matrix_uncorrelated_is_identity():
    C = cm.build_matrix(cm.CorrelationSpec.gauss_markov(0.0, 3))
    assert np.array_equal(C, np.eye(3))


def test_build_matrix_fully_correlated_is_all_ones():
    C = cm.build_matrix(cm.CorrelationSpec.gauss_markov(1.0, 3))
    assert np.array_equal(C, np.ones((3, 3)))


def test_build_matrix_gauss_markov_direct_formula():
    C = cm.build_matrix(cm.CorrelationSpec.gauss_markov(0.5, 3))
    expected = np.array([[1, 0.5, 0.25], [0.5, 1, 0.5], [0.25, 0.5, 1.0]])
    assert np.allclose(C, expected, atol=0, rtol=0)


def test_invalid_specs_rejected():
    with pytest.raises(InvalidCorrelation):
        cm.CorrelationSpec.gauss_markov(1.2, 4)
    with pytest.raises(InvalidCorrelation):
        cm.CorrelationSpec.toeplitz([1.0, 1.5])
    with pytest.raises(InvalidCorrelation):
        cm.CorrelationSpec.toeplitz([0.5, 0.1])
    # valid entries but a non-PSD row: min eigenvalue 1 - 0.9 sqrt(2) < 0
    with pytest.raises(InvalidCorrelation):
        cm.build_matrix(cm.CorrelationSpec.toeplitz([1.0, 0.9, 0.0]))


def test_psd_check_agrees_with_full_eigvalsh():
    # build_matrix checks a Toeplitz row by the half-size split; away from
    # the -PSD_TOL*M threshold it must decide as a full eigvalsh does.  The
    # rows are autocorrelations (PSD) perturbed by up to 1e-6 to 0.3.
    rng = np.random.default_rng(11)
    decided = {True: 0, False: 0}
    for M in range(2, 101):
        for scale in (1e-6, 1e-3, 0.03, 0.3):
            g = rng.standard_normal(M + rng.integers(0, 4))
            acf = np.correlate(g, g, "full")[g.size - 1:][:M] / (g @ g)
            row = np.clip(acf + scale * rng.standard_normal(M), -1.0, 1.0)
            row[0] = 1.0
            spec = cm.CorrelationSpec.toeplitz(row)
            k = np.arange(M)
            low = np.linalg.eigvalsh(row[np.abs(k[:, None] - k)])[0]
            margin = low + cm.PSD_TOL * M
            if abs(margin) < 1e-8:
                continue
            try:
                cm.build_matrix(spec)
                accepted = True
            except InvalidCorrelation:
                accepted = False
            assert accepted == (margin >= 0.0), (M, scale, low)
            decided[accepted] += 1
    assert min(decided.values()) > 50
    # (1 + delta) cos(k) off the diagonal is (1 + delta) times a rank-two PSD
    # matrix less delta I: min eigenvalue -delta, within -PSD_TOL*M at
    # delta = 1e-12 and beyond it at 1e-7
    for delta, accepted in ((1e-12, True), (1e-7, False)):
        row = (1.0 + delta) * np.cos(np.arange(10.0))
        row[0] = 1.0
        spec = cm.CorrelationSpec.toeplitz(row)
        if accepted:
            cm.build_matrix(spec)
        else:
            with pytest.raises(InvalidCorrelation, match="-1.000e-07"):
                cm.build_matrix(spec)


def test_eigen_identity_convention():
    es = cm.eigen_decompose(np.eye(4))
    assert np.array_equal(es.eigenvalues, np.ones(4))
    assert np.array_equal(es.rotation, np.eye(4))
    # identity specs build the exact identity, which takes the same branch
    for spec in (cm.CorrelationSpec.gauss_markov(0.0, 4),
                 cm.CorrelationSpec.toeplitz([1, 0, 0, 0])):
        got = cm.eigen_decompose(cm.build_matrix(spec))
        want = es
        assert np.array_equal(got.eigenvalues, want.eigenvalues)
        assert np.array_equal(got.rotation, want.rotation)
        assert np.array_equal(got.rotation, np.eye(4))


def test_eigen_all_ones_rank_one():
    es = cm.eigen_decompose(np.ones((4, 4)))
    assert np.allclose(es.eigenvalues, [0, 0, 0, 4], atol=1e-14)
    assert np.allclose(es.rotation[-1], np.full(4, 0.5), atol=1e-14)
    # all-ones specs build the exact all-ones matrix, which takes the same
    # branch
    for spec in (cm.CorrelationSpec.gauss_markov(1.0, 4),
                 cm.CorrelationSpec.toeplitz([1, 1, 1, 1])):
        got = cm.eigen_decompose(cm.build_matrix(spec))
        want = es
        assert np.array_equal(got.eigenvalues, want.eigenvalues)
        assert np.array_equal(got.rotation, want.rotation)
        assert np.array_equal(got.eigenvalues, [0.0, 0.0, 0.0, 4.0])


def test_eigen_vs_characteristic_polynomial_oracle():
    for rho in (0.3, 0.5, 0.85):
        es = cm.eigen_decompose(
            cm.build_matrix(cm.CorrelationSpec.gauss_markov(rho, 3)))
        want = cubic_eigenvalues_gm3(rho)
        assert np.max(np.abs(es.eigenvalues - want)) < 1e-10


def test_eigen_sign_convention_deterministic():
    es = cm.eigen_decompose(
        cm.build_matrix(cm.CorrelationSpec.gauss_markov(0.7, 6)))
    lead = np.argmax(np.abs(es.rotation), axis=1)
    assert np.all(es.rotation[np.arange(6), lead] > 0)


@settings(max_examples=40, deadline=None)
@given(rho=st.floats(0.0, 0.99), M=st.integers(2, 24))
def test_eigen_reconstruction_properties(rho, M):
    spec = cm.CorrelationSpec.gauss_markov(rho, M)
    C = cm.build_matrix(spec)
    es = cm.eigen_decompose(C)
    assert np.linalg.norm(reconstruct(es) - C) < 1e-10 * M
    assert np.max(np.abs(es.rotation @ es.rotation.T - np.eye(M))) < 1e-12
    assert abs(es.eigenvalues.sum() - M) < 1e-10
    assert es.eigenvalues.min() >= 0.0
    assert np.all(np.diff(es.eigenvalues) >= 0.0)


def test_effective_looks_limits():
    assert cm.effective_looks(np.eye(8)) == pytest.approx(8.0, abs=0)
    assert cm.effective_looks(np.ones((8, 8))) == pytest.approx(1.0, abs=0)


def test_effective_looks_matches_closed_form():
    C = gm_matrix(0.5, 10)
    assert abs(cm.effective_looks(C)
               - gm_effective_looks_closed_form(0.5, 10)) < 1e-12


def test_effective_looks_closed_form_grid():
    # 50-point (rho, M) grid: trace definition vs closed form
    for rho in np.linspace(0.0, 0.9, 10):
        for M in (2, 5, 10, 25, 50):
            trace_val = cm.effective_looks(gm_matrix(rho, M))
            closed = gm_effective_looks_closed_form(rho, M)
            assert abs(trace_val - closed) < 1e-12 * M


def test_gm_closed_form_endpoints():
    assert gm_effective_looks_closed_form(0.0, 12) == 12.0
    assert gm_effective_looks_closed_form(1.0, 12) == 1.0


def test_cross_looks_identity_cases():
    M = 7
    assert cm.cross_looks(np.eye(M), np.eye(M)) == pytest.approx(M)
    Cs = gm_matrix(0.6, M)
    assert cm.cross_looks(np.eye(M), Cs) == pytest.approx(M)


def test_cross_looks_against_trace_oracle():
    Cc, Cs = gm_matrix(0.75, 10), gm_matrix(0.95, 10)
    want = 100.0 / trace_product(Cc, Cs)
    assert cm.cross_looks(Cc, Cs) == pytest.approx(want, rel=1e-14)


def test_cross_looks_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        cm.cross_looks(np.eye(3), np.eye(4))


@settings(max_examples=30, deadline=None)
@given(rc=st.floats(0.0, 0.98), rs=st.floats(0.0, 0.98), M=st.integers(2, 16))
def test_cross_looks_bounds(rc, rs, M):
    val = cm.cross_looks(gm_matrix(rc, M), gm_matrix(rs, M))
    assert 1.0 - 1e-12 <= val <= M + 1e-12


def test_dmg_spectrum_limits():
    _, g = cm.dmg_spectrum(10.0, 10)
    assert np.allclose(g, np.ones(10))
    rho, g = cm.dmg_spectrum(1.0, 10)
    assert rho == pytest.approx(1.0)
    assert np.allclose(g, [0] * 9 + [10.0], atol=1e-14)


def test_dmg_spectrum_plugin_values():
    rho, g = cm.dmg_spectrum(4.0, 10)
    assert rho == pytest.approx(np.sqrt(1.5 / 9.0), rel=1e-15)
    assert g.sum() == pytest.approx(10.0, abs=1e-12)
    assert 100.0 / np.sum(g * g) == pytest.approx(4.0, abs=1e-10)
    assert np.allclose(g[:-1], 1.0 - rho)


def test_dmg_spectrum_rejects_bad_looks():
    with pytest.raises(InvalidLooks):
        cm.dmg_spectrum(0.5, 10)
    with pytest.raises(InvalidLooks):
        cm.dmg_spectrum(11.0, 10)


def test_loading_matrix_reconstructions():
    es = cm.eigen_decompose(np.eye(3))
    assert np.array_equal(cm.loading_matrix(es), np.eye(3))

    es = cm.eigen_decompose(np.ones((2, 2)))
    L = cm.loading_matrix(es)
    assert np.max(np.abs(L.T @ L - np.ones((2, 2)))) < 1e-12

    spec = cm.CorrelationSpec.gauss_markov(0.6, 5)
    es = cm.eigen_decompose(cm.build_matrix(spec))
    L = cm.loading_matrix(es)
    assert np.linalg.norm(L.T @ L - cm.build_matrix(spec)) < 1e-10


def test_limit_basis_is_orthonormal_and_diagonalizes_small_rho():
    M = 8
    R = cm.gauss_markov_limit_basis(M)
    assert np.max(np.abs(R @ R.T - np.eye(M))) < 1e-12
    # diagonalizes the family member at tiny rho (ascending order)
    C = gm_matrix(1e-7, M)
    D = R @ C @ R.T
    off = D - np.diag(np.diag(D))
    assert np.max(np.abs(off)) < 1e-12
    assert np.all(np.diff(np.diag(D)) >= 0)
