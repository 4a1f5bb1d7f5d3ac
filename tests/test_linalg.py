import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from brute_force import approx_equal, conjugate_transpose, is_hermitian
from fqz import linalg

# a numpy RuntimeWarning that a test does not ignore in its body fails it:
# the checker promises to stay quiet on any input
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

ATOL = 1e-9


def complex_matrices(max_dim=4):
    """Small matrices with entries bounded away from overflow."""

    def build(n_rows, n_cols, values):
        data = np.array(values[: n_rows * n_cols], dtype=np.complex128)
        return data.reshape(n_rows, n_cols)

    reals = st.floats(min_value=-10, max_value=10, allow_nan=False)
    entries = st.builds(complex, reals, reals)
    return st.tuples(
        st.integers(1, max_dim),
        st.integers(1, max_dim),
        st.lists(entries, min_size=max_dim * max_dim, max_size=max_dim * max_dim),
    ).map(lambda t: build(*t))


class TestConstruction:
    def test_as_matrix_accepts_nested_lists(self):
        m = linalg.as_matrix([[1, 2], [3, 4]])
        assert m.dtype == np.complex128
        assert m.shape == (2, 2)

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            linalg.as_matrix([1, 2, 3])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0, float("inf"))])
    def test_rejects_non_finite_entries(self, bad):
        with pytest.raises(ValueError, match="finite"):
            linalg.as_matrix([[1, 0], [0, bad]])

    @pytest.mark.parametrize("bad", [{}, object(), "a"], ids=["dict", "object", "str"])
    def test_rejects_non_numbers_as_value_error(self, bad):
        with pytest.raises(ValueError):
            linalg.as_matrix([[1, 0], [0, bad]])


class TestConjugateTranspose:
    def test_known_value(self):
        m = [[1 + 2j, 3], [0, -1j]]
        expected = np.array([[1 - 2j, 0], [3, 1j]])
        assert np.array_equal(conjugate_transpose(m), expected)

    @given(complex_matrices())
    def test_involution_is_exact(self, m):
        """(m+)+ == m entrywise, bit for bit: only signs and positions move."""
        twice = conjugate_transpose(conjugate_transpose(m))
        assert np.array_equal(twice, m)

    @given(complex_matrices(max_dim=3))
    def test_sum_with_adjoint_is_hermitian(self, m):
        if m.shape[0] != m.shape[1]:
            m = m @ m.conj().T  # square it up
        s = m + conjugate_transpose(m)
        assert is_hermitian(s, ATOL)


class TestPredicates:
    def test_approx_equal_within_tolerance(self):
        a = np.eye(2)
        b = np.eye(2) + 1e-12
        assert approx_equal(a, b, 1e-9)
        assert not approx_equal(a, b, 1e-13)

    def test_approx_equal_shape_mismatch_is_false(self):
        assert not approx_equal(np.eye(2), np.eye(3))

    def test_rejects_silly_tolerances(self):
        with pytest.raises(ValueError):
            approx_equal(np.eye(2), np.eye(2), tol=0.0)
        with pytest.raises(ValueError):
            approx_equal(np.eye(2), np.eye(2), tol=1.5)

    def test_hermitian_example(self):
        assert is_hermitian([[2, 3 - 1j], [3 + 1j, 5]])

    def test_non_hermitian(self):
        assert not is_hermitian([[1, 0], [0, 1j]])
        assert not is_hermitian(np.ones((2, 3)))

    def test_hadamard_is_unitary(self):
        h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        assert linalg.is_unitary(h)

    def test_shear_is_not_unitary(self):
        # [[1,1],[0,1]] times its adjoint is [[2,1],[1,1]], not the identity
        assert not linalg.is_unitary([[1, 1], [0, 1]])

    def test_non_square_is_not_unitary(self):
        assert not linalg.is_unitary(np.ones((2, 3)))

    @pytest.mark.parametrize("tol", [0.0, 1.0, 5.0, -1.0, float("nan")])
    @pytest.mark.parametrize("m", [np.ones((2, 3)), np.eye(2), [[1, 1], [0, 1]], [["a"]]], ids=["2x3", "I", "shear", "text"])
    def test_a_tolerance_outside_the_unit_interval_raises_first(self, m, tol):
        # whatever the matrix: a 2x3 matrix used to read False at tol 5
        with pytest.raises(ValueError, match=r"^tolerance must lie in \(0, 1\)"):
            linalg.is_unitary(m, tol)

    @given(complex_matrices(), st.sampled_from([1e-300, 1e-9, 0.5, 0.999]))
    def test_the_square_core_is_is_unitary(self, m, tol):
        square = m[: min(m.shape), : min(m.shape)]
        assert linalg.is_unitary_square(square, tol) is linalg.is_unitary(square, tol)
        unit = np.linalg.qr(square + np.eye(len(square)))[0]  # unitary up to rounding
        assert linalg.is_unitary_square(unit, tol) is linalg.is_unitary(unit, tol)

    def test_shared_identities_are_read_only(self):
        for dim, eye in linalg._IDENTITIES.items():
            assert not eye.flags.writeable
            assert eye.tobytes() == np.eye(dim, dtype=np.complex128).tobytes()

    def test_overflowing_product_is_not_unitary(self):
        # finite entries, but 1e200 squared is inf: not unitary, no exception.
        # numpy warns of the overflow, which the module's pytestmark would
        # turn into an error, and a test's own mark would lose to it
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert not linalg.is_unitary([[1e200, 0], [0, 1]])
            assert not linalg.is_unitary([[1e200, 1e200j], [1e200, 1]])


class TestEigenvalues2x2:
    def test_diag_z(self):
        lams = linalg.eigenvalues_2x2([[1, 0], [0, -1]])
        assert lams == (1 + 0j, -1 + 0j)

    def test_identity_degenerate(self):
        assert linalg.eigenvalues_2x2(np.eye(2)) == (1 + 0j, 1 + 0j)

    def test_hadamard(self):
        h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        lams = linalg.eigenvalues_2x2(h)
        np.testing.assert_allclose(lams, [1, -1], atol=1e-12)

    def test_rejects_other_shapes(self):
        with pytest.raises(ValueError):
            linalg.eigenvalues_2x2(np.eye(3))

    @given(
        st.floats(-5, 5),
        st.floats(-5, 5),
        st.builds(complex, st.floats(-5, 5), st.floats(-5, 5)),
    )
    def test_hermitian_spectra_are_real(self, a, d, off):
        """Hermitian 2x2: [[a, c], [conj(c), d]] with a, d real."""
        m = np.array([[a, off], [np.conj(off), d]])
        for lam in linalg.eigenvalues_2x2(m):
            assert abs(lam.imag) <= 1e-9

    @given(st.builds(complex, st.floats(-5, 5), st.floats(-5, 5)))
    def test_roots_satisfy_characteristic_polynomial(self, c):
        m = np.array([[c, 1], [2, -c]])
        tr = m[0, 0] + m[1, 1]
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        for lam in linalg.eigenvalues_2x2(m):
            assert abs(lam * lam - tr * lam + det) <= 1e-6
