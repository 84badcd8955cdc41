"""Shared helpers for the test suite."""

import numpy as np
import pytest


@pytest.fixture
def eigh_calls(monkeypatch):
    """Route numpy.linalg.eigh through a counter; the list grows by one per call."""
    calls = []
    real_eigh = np.linalg.eigh

    def counting_eigh(*args, **kwargs):
        calls.append(1)
        return real_eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    return calls


def reference_propagator(matrix, t, hbar=1.0):
    """Explicit U(t) = V diag(e^{-iEt/hbar}) V^dag from a fresh numpy.linalg.eigh."""
    energies, vectors = np.linalg.eigh(matrix)
    return (vectors * np.exp(-1j * energies * t / hbar)) @ vectors.conj().T


def degenerate_hermitian(dim, seed):
    """W diag(0, 0, 1, 1, 2, ...) W^dag for a seeded random unitary W, re-symmetrized."""
    rng = np.random.default_rng(seed)
    w, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    m = (w * (np.arange(dim) // 2).astype(float)) @ w.conj().T
    return 0.5 * (m + m.conj().T)


def central_difference_gradient(f, x, h=1e-5):
    """Numerical Wirtinger gradient of a real-valued f at complex x.

    Treats f as a function of the 2d real coordinates (Re x_k, Im x_k) and
    recovers the gradient with respect to conj(x) from central differences:
    df/dRe(x_k) = 2 Re(g_k) and df/dIm(x_k) = 2 Im(g_k).
    """
    x = np.asarray(x, dtype=np.complex128)
    g = np.empty(x.size, dtype=np.complex128)
    for k in range(x.size):
        e = np.zeros(x.size, dtype=np.complex128)
        e[k] = h
        d_re = (f(x + e) - f(x - e)) / (2.0 * h)
        d_im = (f(x + 1j * e) - f(x - 1j * e)) / (2.0 * h)
        g[k] = 0.5 * (d_re + 1j * d_im)
    return g


def relative_error(approx, exact):
    approx = np.asarray(approx)
    exact = np.asarray(exact)
    scale = max(float(np.max(np.abs(exact))), 1e-300)
    return float(np.max(np.abs(approx - exact))) / scale
