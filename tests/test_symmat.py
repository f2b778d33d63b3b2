import ast
from pathlib import Path

import numpy as np
import pytest

import spdsgd

from spdsgd.symmat import (
    DomainError,
    spectral,
    sym_eigen,
    symmetrize,
)

from conftest import random_spd


def test_already_diagonal():
    w, v = sym_eigen(np.diag([2.0, 1.0]))
    np.testing.assert_array_equal(w, [2.0, 1.0])
    np.testing.assert_array_equal(v, np.eye(2))


def test_two_by_two_hand_solved():
    # Characteristic polynomial of [[2,1],[1,2]]: (2-l)^2 - 1 = 0.
    a, b, c = 1.0, -4.0, 3.0
    disc = np.sqrt(b * b - 4 * a * c)
    lam_hi, lam_lo = (-b + disc) / (2 * a), (-b - disc) / (2 * a)
    w, v = sym_eigen(np.array([[2.0, 1.0], [1.0, 2.0]]))
    np.testing.assert_allclose(w, [lam_hi, lam_lo], rtol=1e-14)
    s = 1.0 / np.sqrt(2.0)
    np.testing.assert_allclose(v[:, 0], [s, s], rtol=1e-14)
    np.testing.assert_allclose(v[:, 1], [s, -s], rtol=1e-14)


def test_reconstruction_and_orthogonality(rng):
    for d in range(2, 11):
        for cond in (None, 1e3, 1e6):
            s = random_spd(rng, d, cond=cond)
            w, v = sym_eigen(s)
            recon = (v * w) @ v.T
            scale = np.linalg.norm(s)
            assert np.linalg.norm(recon - s) <= 1e-12 * scale
            assert np.linalg.norm(v.T @ v - np.eye(d)) < 1e-12
            assert np.all(np.diff(w) <= 0)


def test_eigen_deterministic_bitwise(rng):
    s = random_spd(rng, 6)
    w1, v1 = sym_eigen(s)
    w2, v2 = sym_eigen(s.copy())
    np.testing.assert_array_equal(w1, w2)
    np.testing.assert_array_equal(v1, v2)


def test_eigen_rejects_nonfinite():
    bad = np.array([[1.0, np.nan], [np.nan, 1.0]])
    with pytest.raises(ValueError, match="non-finite"):
        sym_eigen(bad)


def test_eigen_rejects_asymmetric():
    with pytest.raises(ValueError, match="symmetric"):
        sym_eigen(np.array([[1.0, 2.0], [0.0, 1.0]]))


def fn_of(s, fn, positive=False):
    """``fn`` applied to ``s`` through its spectrum: one :func:`spectral` matrix."""
    (out,) = spectral(s, fn, positive=positive)
    return out


def test_exp_of_zero_is_identity():
    np.testing.assert_allclose(fn_of(np.zeros((3, 3)), np.exp), np.eye(3), atol=1e-15)


def test_log_inverts_exp(rng):
    for _ in range(20):
        s = rng.standard_normal((4, 4))
        s = 0.5 * (s + s.T)
        s *= 2.0 / max(np.linalg.norm(s), 2.0)  # keep ||S||_F <= 2
        back = fn_of(fn_of(s, np.exp), np.log, positive=True)
        assert np.linalg.norm(back - s) <= 1e-10 * max(1.0, np.linalg.norm(s))


def test_sqrt_squares_back():
    s = np.array([[2.0, 1.0], [1.0, 2.0]])
    r = fn_of(s, np.sqrt, positive=True)
    np.testing.assert_allclose(r @ r, s, atol=1e-12)


def test_spectral_mapping(rng):
    s = random_spd(rng, 5, cond=100)
    out = fn_of(s, lambda w: w**2 + 1.0)
    w_in, _ = sym_eigen(s)
    w_out, _ = sym_eigen(out)
    np.testing.assert_allclose(np.sort(w_out), np.sort(w_in**2 + 1.0), rtol=1e-10)
    # Log spectrum stays well-scaled even for badly conditioned input.
    s = random_spd(rng, 5, cond=1e4)
    w_in, _ = sym_eigen(s)
    w_log, _ = sym_eigen(fn_of(s, np.log, positive=True))
    np.testing.assert_allclose(
        np.sort(w_log), np.sort(np.log(w_in)), rtol=1e-10, atol=1e-12
    )


def test_identity_function_is_identity(rng):
    s = random_spd(rng, 5)
    out = fn_of(s, lambda w: w)
    assert np.linalg.norm(out - s) <= 1e-12 * np.linalg.norm(s)


def test_domain_guard_reports_offender():
    s = np.diag([2.0, -3.0])
    with pytest.raises(DomainError) as err:
        fn_of(s, np.log, positive=True)
    assert err.value.eigenvalue == pytest.approx(-3.0)


def test_positive_guard_is_optional():
    s = np.diag([2.0, -3.0])
    np.testing.assert_allclose(fn_of(s, np.square), np.diag([4.0, 9.0]))
    with pytest.raises(DomainError):
        fn_of(s, np.square, positive=True)


def test_stacked_asymmetry_names_the_matrix():
    stack = np.stack([np.eye(2), np.eye(2), [[1.0, 1e-3], [0.0, 1.0]]])
    with pytest.raises(ValueError, match="at index 2 is not symmetric"):
        sym_eigen(stack)


def test_symmetrize():
    a = np.array([[1.0, 2.0], [0.0, 1.0]])
    out = symmetrize(a)
    np.testing.assert_array_equal(out, out.T)
    np.testing.assert_allclose(out, [[1.0, 1.0], [1.0, 1.0]])


def _call_sites(name):
    """``(module file, innermost enclosing function)`` of every call to ``name``
    in the package, whether written ``np.linalg.name(...)`` or ``name(...)``."""
    sites = set()
    for path in sorted(Path(spdsgd.__file__).parent.glob("*.py")):
        scope = ["<module>"]

        class Visitor(ast.NodeVisitor):
            def visit_FunctionDef(self, node):
                scope.append(node.name)
                self.generic_visit(node)
                scope.pop()

            def visit_Call(self, node):
                if getattr(node.func, "attr", getattr(node.func, "id", None)) == name:
                    sites.add((path.name, scope[-1]))
                self.generic_visit(node)

        Visitor().visit(ast.parse(path.read_text()))
    return sites


def test_numpy_eigensolvers_have_one_call_site_each():
    # Every decomposition goes through the spectral kernel's _eigh, and every
    # eigenvalue-only check through the stacked SPD validation.
    assert _call_sites("eigh") == {("symmat.py", "_eigh")}
    assert _call_sites("eigvalsh") == {("manifold.py", "validate_spd")}
