"""Independent oracles for the derived expected values frozen into the test suite.

Run as a script to regenerate the numbers. Every routine here deliberately
avoids the library's own numerics: integrals go through adaptive
Gauss-Kronrod quadrature or mpmath, minimizations through dense scans,
eigenvalues through shooting. The printed values are pasted into the tests
as literals; if an implementation change moves a test away from one of
these numbers, the implementation is wrong, not the test.
"""
import mpmath as mp
import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.optimize import brentq


def omega_riemann_oracle():
    # midpoint Riemann sum, 10^6 nodes, N = 2.5
    n = 10 ** 6
    t = (np.arange(n) + 0.5) * (np.pi / n)
    val = np.sum(np.sin(t) ** 1.5) * (np.pi / n)
    mp.mp.dps = 30
    exact = mp.beta(mp.mpf("1.25"), mp.mpf("0.5"))
    print(f"omega_2.5 riemann(1e6) = {val:.12f}   beta(5/4,1/2) = {mp.nstr(exact, 15)}")
    return val, float(exact)


def linear_density_violation_oracle():
    # h(t) = t on [0,1], K=10, N=2: brute scan for a violated concavity triple
    K, N = 10.0, 2.0
    ts = np.linspace(0.0, 1.0, 201)
    worst = (0.0, None)
    for i0 in range(0, 201, 10):
        for i1 in range(i0 + 20, 201, 10):
            x0, x1 = ts[i0], ts[i1]
            theta = x1 - x0
            for lam in (0.25, 0.5, 0.75):
                xt = lam * x1 + (1 - lam) * x0
                s = np.sqrt(K / (N - 1))
                if theta * s >= np.pi:
                    continue
                s1 = np.sin(lam * theta * s) / np.sin(theta * s)
                s0 = np.sin((1 - lam) * theta * s) / np.sin(theta * s)
                lhs = xt
                rhs = s1 * x1 + s0 * x0
                if rhs - lhs > worst[0]:
                    worst = (rhs - lhs, (x0, x1, lam))
    print(f"linear h, K=10, N=2: worst violation {worst[0]:.6f} at {worst[1]}")
    return worst


def profile_dense_oracle():
    # I_{3, 3.0}(0.37) by brute-force min over a 10^5-point b grid,
    # with quad integrals and brentq root finds throughout.
    N, D, v = 3.0, 3.0, 0.37

    def sint(a, b):
        val, _ = quad(lambda t: np.sin(t) ** (N - 1), a, b, epsabs=1e-14, epsrel=1e-13)
        return val

    def g(b):
        tot = sint(b, b + D)
        target = v * tot
        R = brentq(lambda r: sint(b, r) - target, b, b + D, xtol=1e-14)
        return np.sin(R) ** (N - 1) / tot

    bs = np.linspace(0.0, np.pi - D, 100001)
    gs = np.array([g(b) for b in bs])
    i = int(np.argmin(gs))
    print(f"profile(N=3, D=3.0, v=0.37) dense = {gs[i]:.15f} at b = {bs[i]:.9f}")
    return gs[i]


def bbg_oracle():
    # C_{N,D} = (int_0^{pi/2} cos^{N-1} / int_0^{D/2} cos^{N-1})^{1/N}, N=3, D=2.9
    N, D = 3.0, 2.9
    num, _ = quad(lambda t: np.cos(t) ** (N - 1), 0, np.pi / 2, epsabs=1e-15)
    den, _ = quad(lambda t: np.cos(t) ** (N - 1), 0, D / 2, epsabs=1e-15)
    val = (num / den) ** (1.0 / N)
    print(f"bbg_constant(N=3, D=2.9) = {val:.15f}")
    return val


def deficit_dense_oracle():
    # deficit of u = cos + 0.1 cos(2t) on the N=2 model, via quad with the
    # analytic derivative. Steps mirror the op contract: recenter, unit
    # L2(m) norm, Dirichlet energy minus N.
    N = 2.0
    h = np.sin
    mass, _ = quad(h, 0, np.pi, epsabs=1e-14)

    def u(t):
        return np.cos(t) + 0.1 * np.cos(2 * t)

    def du(t):
        return -np.sin(t) - 0.2 * np.sin(2 * t)

    mean = quad(lambda t: h(t) * u(t), 0, np.pi, epsabs=1e-14)[0] / mass
    nrm2 = quad(lambda t: h(t) * (u(t) - mean) ** 2, 0, np.pi, epsabs=1e-14)[0] / mass
    dir2 = quad(lambda t: h(t) * du(t) ** 2, 0, np.pi, epsabs=1e-14)[0] / mass
    val = dir2 / nrm2 - N
    print(f"deficit(cos + 0.1 cos 2t, model N=2) = {val:.12f}")
    return val


def shooting_oracle():
    # first nonzero Neumann eigenvalue of d/dt(cos^{N-1} du/dt) = -lam cos^{N-1} u
    # on [-D/2, D/2]; eigenfunction is odd, so shoot from u(0)=0, u'(0)=1.
    def lam1(N, D):
        def end_slope(lam):
            def rhs(t, y):
                return [y[1], (N - 1) * np.tan(t) * y[1] - lam * y[0]]
            sol = solve_ivp(rhs, [0.0, D / 2], [0.0, 1.0], rtol=1e-11, atol=1e-13)
            return sol.y[1][-1]
        return brentq(end_slope, max(N - 0.5, 0.5), 4 * N, xtol=1e-12)

    for N, D in ((2.0, 3.0), (3.0, 2.8)):
        print(f"shooting lambda1(N={N}, D={D}, centered cos^{{N-1}}) = {lam1(N, D):.10f}")


def green_closed_form_note():
    # z = cos, x0 = pi/2: v0(t) = sin(t) int_{pi/2}^t cos^2 - cos(t) int_{pi/2}^t sin cos
    #                          = ((t - pi/2) sin t + cos t) / 2
    t = np.linspace(0, np.pi, 7)
    v = ((t - np.pi / 2) * np.sin(t) + np.cos(t)) / 2
    print("green closed form ((t-pi/2)sin t + cos t)/2 at 7 nodes:", np.round(v, 10))


if __name__ == "__main__":
    omega_riemann_oracle()
    linear_density_violation_oracle()
    profile_dense_oracle()
    bbg_oracle()
    deficit_dense_oracle()
    shooting_oracle()
    green_closed_form_note()
