"""Reference computations the benchmark checks povmrank's outputs against.

None of these calls povmrank: oscillator wavefunctions come from
scipy.special's Hermite polynomials, bin integrals from scipy.integrate
or a fixed high-order Gauss-Legendre rule.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy import integrate, special

# Beyond |x| = x_max + TAIL_SPAN every psi_k psi_l with k, l < 16 is below 1e-60.
TAIL_SPAN = 14.0
GL_NODES, GL_WEIGHTS = np.polynomial.legendre.leggauss(160)


def closed_form_rank(d: int, m: int) -> int:
    """Independent elements seen by m phases on d levels: m(2d - m) for
    m < d, and d^2 from m = d on."""
    m = min(m, d)
    return m * (2 * d - m)


def psi(k: int, x):
    """Normalized oscillator wavefunction from the raw Hermite polynomial."""
    norm = 1.0 / math.sqrt(2.0**k * math.factorial(k) * math.sqrt(math.pi))
    return norm * special.eval_hermite(k, x) * np.exp(-0.5 * np.asarray(x) ** 2)


def bin_entry_quad(k: int, l: int, theta: float, a: float, b: float) -> complex:
    """(int_a^b psi_k psi_l dx) e^{i(k-l)theta} by adaptive quadrature."""
    value, _err = integrate.quad(
        lambda x: psi(k, x) * psi(l, x), a, b, epsabs=1e-14, epsrel=1e-12, limit=200
    )
    return value * complex(math.cos((k - l) * theta), math.sin((k - l) * theta))


def _gl_block(a: float, b: float, dim: int) -> np.ndarray:
    half, mid = 0.5 * (b - a), 0.5 * (a + b)
    xs = mid + half * GL_NODES
    table = np.array([psi(k, xs) for k in range(dim)])
    return (table * (half * GL_WEIGHTS)) @ table.T


@lru_cache(maxsize=None)
def binned_elements(dim: int, phases: tuple, n_bins: int, x_max: float) -> np.ndarray:
    """POVM elements [setting * bin, dim, dim] for 2 overflow + n_bins equal
    bins on [-x_max, x_max] at each phase, ordered like povmrank's layout."""
    edges = np.linspace(-x_max, x_max, n_bins + 1)
    intervals = [(-x_max - TAIL_SPAN, -x_max)] + list(zip(edges[:-1], edges[1:]))
    intervals.append((x_max, x_max + TAIL_SPAN))
    blocks = [_gl_block(a, b, dim) for a, b in intervals]
    levels = np.arange(dim)
    out = []
    for theta in phases:
        rot = np.exp(1j * theta * (levels[:, None] - levels[None, :]))
        out.extend(block * rot for block in blocks)
    return np.array(out)


def coherent_state(alpha: complex, dim: int) -> np.ndarray:
    """Coherent amplitudes alpha^n / sqrt(n!), n < dim, renormalized."""
    amps = np.array([alpha**n / math.sqrt(math.factorial(n)) for n in range(dim)])
    return amps / np.linalg.norm(amps)


def fock_superposition(levels, amplitudes, dim: int) -> np.ndarray:
    vec = np.zeros(dim, dtype=complex)
    vec[list(levels)] = amplitudes
    return vec / np.linalg.norm(vec)


def fidelity_to_pure(rho: np.ndarray, vec: np.ndarray) -> float:
    """Uhlmann fidelity of rho with the pure state |vec>: <vec|rho|vec>.

    This closed form replaces (Tr sqrtm(sqrtm(rho) sigma sqrtm(rho)))^2:
    ML estimates are nearly singular and sigma is rank one, and there
    scipy.linalg.sqrtm is only good to about sqrt(machine epsilon); on
    fourteen tomography estimates it missed this value by up to 3.5e-8.
    """
    return float(np.real(np.vdot(vec, rho @ vec)))


def bin_probabilities(rho: np.ndarray, elements: np.ndarray) -> np.ndarray:
    """Tr(rho E_j) for every element E_j."""
    return np.real(np.einsum("kl,jlk->j", rho, elements))


def ml_gap_bound(counts: np.ndarray, probs: np.ndarray, elements: np.ndarray) -> float:
    """N (lambda_max(R) - 1) with R = sum_j f_j / p_j E_j, over bins with
    counts > 0 and their probabilities p_j = Tr(rho E_j) > 0.

    By concavity of the log-likelihood L, every state sigma has
    L(sigma) <= L(rho) + N (lambda_max(R) - 1)  (Glancy, Knill and Girard,
    NJP 14, 095017), whatever rho is, so the inequality itself tells
    nothing about rho.  The bound does: it is 0 at the ML optimum and
    bounds how far L(rho) falls short of it.
    """
    total = counts.sum()
    r_op = np.einsum("j,jkl->kl", counts / (total * probs), elements)
    lam_max = float(np.linalg.eigvalsh(0.5 * (r_op + r_op.conj().T))[-1])
    return float(total * (lam_max - 1.0))
