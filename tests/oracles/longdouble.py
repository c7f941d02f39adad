"""Long-double reference eigenvalues of the discrete Neumann pencil.

The pencil is the one spectral.neumann_eigs solves, -(f u')_j = lambda M_j u_j:
fluxes f_i = hmid_i / dt_i and lumped masses M_j, the two half-cell masses
hmid_i dt_i / 2 beside node j, from the cell-midpoint densities
hmid_i = (h_i + h_{i+1}) / 2 of the node samples (t, h). Here the pencil is
formed in np.longdouble (a 64-bit significand on x86-64) from the float64
samples, and each eigenvalue is found by inverse iteration: a Thomas solve
of (A - sigma M) x = M u per step, the shift sigma taken from the caller and
then from the Rayleigh quotient sum f du^2 / sum M u^2 of u recentred to
zero M-mean. Nothing here calls the library's numerics.
"""
import numpy as np

LD = np.longdouble


def pencil(t, h):
    """(f, M) of the node samples (t, h), in long double."""
    t, h = np.asarray(t, dtype=LD), np.asarray(h, dtype=LD)
    dt = t[1:] - t[:-1]
    hmid = (h[:-1] + h[1:]) / 2
    M = np.zeros(len(t), dtype=LD)
    M[:-1] += hmid * dt / 2
    M[1:] += hmid * dt / 2
    return hmid / dt, M


def _thomas(f, diag, rhs):
    """x with (tridiag(-f, diag, -f)) x = rhs, by elimination without pivoting."""
    n = len(diag)
    c = np.zeros(n, dtype=LD)
    x = np.empty(n, dtype=LD)
    denom = diag[0]
    c[0], x[0] = -f[0] / denom, rhs[0] / denom
    for i in range(1, n):
        denom = diag[i] + f[i - 1] * c[i - 1]
        if i < n - 1:
            c[i] = -f[i] / denom
        x[i] = (rhs[i] + f[i - 1] * x[i - 1]) / denom
    for i in range(n - 2, -1, -1):
        x[i] -= c[i] * x[i + 1]
    return x


def rayleigh(f, M, u):
    """The flux quotient sum f du^2 / sum M u^2 of u recentred to zero M-mean."""
    u = u - np.sum(M * u) / np.sum(M)
    return np.sum(f * np.diff(u) ** 2) / np.sum(M * u * u)


def eigenpair(t, h, shift, fixed_steps=2, max_steps=12):
    """(lambda, u) of the pencil nearest `shift`: `fixed_steps` steps at the
    shift, then Rayleigh quotient shifts until lambda stops moving."""
    f, M = pencil(t, h)
    stiffness = np.zeros(len(M), dtype=LD)
    stiffness[:-1] += f
    stiffness[1:] += f
    u = np.asarray(np.random.default_rng(0).standard_normal(len(M)), dtype=LD)
    sigma, lam = LD(shift), None
    for step in range(max_steps):
        u = _thomas(f, stiffness - sigma * M, M * u)
        u /= np.max(np.abs(u))
        new = rayleigh(f, M, u)
        if lam is not None and abs(new - lam) <= 4 * np.finfo(LD).eps * abs(new):
            return new, u
        lam = new
        if step + 1 >= fixed_steps:
            sigma = lam
    raise RuntimeError(f"no convergence from shift {shift}")


def sign_changes(u):
    """Sign changes of u among its values above 1e-8 of the largest."""
    s = np.sign(u[np.abs(u) > 1e-8 * np.max(np.abs(u))])
    return int(np.sum(s[1:] != s[:-1]))
