"""Discrete ray-family simulator for the localization pipeline.

A RayFamily is an explicit disintegration: weighted 1-D CD densities with
per-ray functions u_i, orthogonal-energy densities e_i, and pole offsets.
Every inequality of the globalization chain is computed on it, from the
global deficit ledger through Chebyshev selection of long rays to the final
assembly against sqrt(N+1) cos of the suspension distance. The entry point
is localize(), which runs the whole chain once and returns a Localization
holding every stage report; each stage reads what it needs from the
reports of the stages before it.

Each policy of the chain is decided in one place. A deficit delta <= 0 (a
rigid family, up to rounding) counts as 0 at every stage: every threshold,
envelope and ratio reads DeficitLedger.delta_plus, so the rule is written
once (assemble_main only reports the raw delta). localize alone resolves the
default exponents beta and gamma; every stage takes them as required
arguments or reads beta from the selection report. The per-ray |c_q| comes
from the ledger and the long-ray mass q(Q_long) from the selection report,
each computed once.

All reductions over rays are plain ordered folds, so results are bit-stable
regardless of how per-ray work is scheduled.
"""
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    NonCDInputError,
    NormalizationError,
    ParameterDomainError,
    UndefinedQuotientError,
)
from .measures import (Grid, WeightedInterval, first_diff, load_density_csv, model_density,
                       read_csv, require_dimension, require_model_in_range)
from .spectral import asymptotic_rate_constant

SCHEMA = "rayfam-v1"
# The chain's tolerances, which localize reports in summary.json. IDENTITY_SLACK
# is the rounding deadband of the deficit identity and of every bound and flag
# threshold; a scaling diagnostic flags a value above FLAG_FACTOR times its
# envelope; the orthogonal energy may exceed the deficit by ENERGY_IDENTITY_SLACK,
# and a ball measure leave its model bracket by VOLUME_SLACK.
IDENTITY_SLACK = 1e-10
ENERGY_IDENTITY_SLACK = 1e-6
FLAG_FACTOR = 10.0
VOLUME_SLACK = 1e-9


def default_beta(N):
    return 3.0 * N / (4.0 * N + 2.0)


def default_gamma(N):
    return N / (4.0 * N + 2.0)


def final_exponent(N):
    return 1.0 / (8.0 * N + 4.0)


def _envelope_ratio(value, envelope, floor):
    """value/envelope; 0 for a value at or below floor, inf over a zero envelope."""
    if value <= floor:
        return 0.0
    return math.inf if envelope == 0.0 else value / envelope


@dataclass(frozen=True, eq=False)
class Ray:
    """One needle: weight, unit-mass CD density, function and energy samples.

    a and b are the start/end offsets of the needle from the two poles in
    suspension coordinates; the needle occupies [a, a + D].
    """

    weight: float
    w: WeightedInterval
    u: np.ndarray
    e: np.ndarray
    a: float = 0.0
    b: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "u", np.asarray(self.u, dtype=float))
        object.__setattr__(self, "e", np.asarray(self.e, dtype=float))
        n = len(self.w.grid.nodes)
        if len(self.u) != n or len(self.e) != n:
            raise ParameterDomainError("u and e must be sampled on the ray grid")
        if not (np.isfinite(self.u).all() and np.isfinite(self.e).all()):
            raise ParameterDomainError("u and e samples must be finite")
        if np.any(self.e < 0):
            raise ParameterDomainError("orthogonal energy density must be >= 0")
        if not 0 < self.weight < math.inf:
            raise ParameterDomainError("ray weights must be positive and finite")
        if not (0 <= self.a < math.inf and 0 <= self.b < math.inf):
            raise ParameterDomainError("pole offsets must be finite and >= 0")
        if abs(self.w.total_mass - 1.0) > 1e-6:
            raise NormalizationError("ray densities must have unit mass")


@dataclass(frozen=True, eq=False)
class RayFamily:
    N: float
    rays: tuple
    unspanned_mass: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "rays", tuple(self.rays))
        require_dimension(self.N)
        if not self.rays:
            raise ParameterDomainError("family needs at least one ray")
        if not 0 <= self.unspanned_mass < math.inf:
            raise ParameterDomainError("unspanned mass must be finite and >= 0")
        total = math.fsum(r.weight for r in self.rays) + self.unspanned_mass
        if abs(total - 1.0) > 1e-9:
            raise NormalizationError(
                f"ray weights + unspanned mass must sum to 1, got {total!r}"
            )

    @property
    def weights(self):
        return np.array([r.weight for r in self.rays])

    def max_step(self):
        return max(r.w.grid.max_step for r in self.rays)


def normalize(f: RayFamily) -> RayFamily:
    """Recentre each u_i to zero m_i-mean and rescale u to unit global L2(m).

    Idempotent by a deadband: when every per-ray mean is below
    10 max_step^2 (relative to max |u_i|) and the global norm is within 1e-7
    of 1, the family is returned unchanged (the same object), so rigid
    fixtures are exact fixed points and normalize(normalize(f)) is
    normalize(f) bitwise.
    """
    band = 10.0 * f.max_step() ** 2
    umax = max((float(np.max(np.abs(r.u))) for r in f.rays), default=0.0)
    if umax == 0.0:
        raise NormalizationError("all ray functions are identically zero")
    means = [r.w.mean(r.u) for r in f.rays]
    norm2 = math.fsum(r.weight * r.w.mean(r.u * r.u) for r in f.rays)
    if all(abs(mu) <= band * umax for mu in means) and abs(norm2 - 1.0) <= 1e-7:
        return f

    centred = [r.u - mu for r, mu in zip(f.rays, means)]
    norm2 = math.fsum(r.weight * r.w.mean(u * u) for r, u in zip(f.rays, centred))
    if norm2 <= 0.0:
        raise NormalizationError("family has no u mass after recentring")
    scale = 1.0 / math.sqrt(norm2)
    rays = tuple(
        Ray(weight=r.weight, w=r.w, u=u * scale, e=r.e, a=r.a, b=r.b)
        for r, u in zip(f.rays, centred)
    )
    return RayFamily(N=f.N, rays=rays, unspanned_mass=f.unspanned_mass)


@dataclass(frozen=True, eq=False)
class DeficitLedger:
    """The global deficit and its per-ray split."""

    delta: float
    c: np.ndarray           # per-ray |c_q|; per_ray_cosine fixes the signs
    delta_q: np.ndarray     # per-ray deficits, nan where c_q = 0

    @property
    def delta_plus(self):
        """The deficit every stage reads: delta <= 0 counts as exactly 0."""
        return max(self.delta, 0.0)


def global_deficit(f: RayFamily) -> DeficitLedger:
    """delta = sum_i q_i int(|u_i'|^2 + e_i) dm_i - N, with the per-ray ledger.

    Certifies the localization identity delta >= sum q_i delta_q c_q^2 and the
    orthogonal-energy identity sum q_i int e_i dm_i <= delta; a breach of
    either beyond rounding means the input was not a CD disintegration.
    """
    N = f.N
    c2 = np.array([r.w.mean(r.u * r.u) for r in f.rays])
    total = math.fsum(r.weight * v for r, v in zip(f.rays, c2))
    if abs(total - 1.0) > 1e-6:
        raise NormalizationError("family is not normalized; run normalize first")

    grad2 = np.array([r.w.mean(first_diff(r.w.grid, r.u) ** 2) for r in f.rays])
    emass = np.array([r.w.mean(r.e) for r in f.rays])
    weights = f.weights

    delta = math.fsum(q * (g + e) for q, g, e in zip(weights, grad2, emass)) - N
    c = np.sqrt(c2)
    delta_q = np.full(len(f.rays), np.nan)
    pos = c > 0
    delta_q[pos] = grad2[pos] / c2[pos] - N

    localized = math.fsum(
        q * d * cc for q, d, cc in zip(weights[pos], delta_q[pos], c2[pos])
    )
    # delta - localized = sum q int e + N (sum q c^2 - 1) identically, so the
    # normalization drift allowed by the deadband must be credited here.
    if delta - N * (total - 1.0) < localized - IDENTITY_SLACK:
        raise NonCDInputError(
            f"deficit {delta} below localized sum {localized}: not a CD family"
        )
    etotal = math.fsum(q * e for q, e in zip(weights, emass))
    if etotal > delta + ENERGY_IDENTITY_SLACK:
        raise NonCDInputError(
            f"orthogonal energy {etotal} exceeds deficit {delta}"
        )
    return DeficitLedger(delta=float(delta), c=c, delta_q=delta_q)


@dataclass(frozen=True)
class LongRayReport:
    Q_long: tuple
    beta: float
    threshold: float       # delta^beta cut on per-ray deficits
    excluded_c2: float     # sum of q c^2 over excluded rays
    chebyshev_bound: float
    long_c2: float
    long_mass: float       # q(Q_long)
    max_length_gap: float  # max over Q_long of pi - D_i
    length_bound: float    # (delta^beta / C_N)^{1/N}


def select_long_rays(f: RayFamily, ledger: DeficitLedger, beta) -> LongRayReport:
    """Q_long = {c_q > 0, delta_q <= delta^beta}, with Chebyshev certificates.

    The mass certificate is arithmetic given the ledger. The length
    certificate (pi - D_i)^N <= delta^beta / C_N comes from the improved
    spectral gap applied on each long ray; a long ray breaking it cannot
    carry a CD density and raises NonCDInputError.
    """
    N = f.N
    if not 0 < beta < 1:
        raise ParameterDomainError("need 0 < beta < 1")
    delta = ledger.delta_plus
    weights = f.weights
    c = ledger.c
    c2 = c * c

    if delta == 0.0:
        # rigid path: every ray must genuinely reach both poles
        max_gap = max(math.pi - r.w.grid.D for r in f.rays)
        if max_gap > 1e-6:
            raise NonCDInputError(
                "nonpositive deficit with a short ray: not a CD family"
            )
        Q_long = tuple(i for i in range(len(f.rays)) if c[i] > 0)
        threshold = excluded_c2 = bound = length_bound = 0.0
    else:
        threshold = delta ** beta
        Q_long = tuple(
            i for i in range(len(f.rays))
            if c[i] > 0 and ledger.delta_q[i] <= threshold
        )
        excluded = [i for i in range(len(f.rays)) if i not in set(Q_long)]
        excluded_c2 = math.fsum(weights[i] * c2[i] for i in excluded)

        # Markov: the long rays may carry slightly negative delta_q from rounding,
        # which loosens the budget; the certificate keeps that slack explicit.
        long_contrib = math.fsum(
            weights[i] * ledger.delta_q[i] * c2[i] for i in Q_long
        )
        slack = (IDENTITY_SLACK + max(0.0, -long_contrib)) / threshold
        bound = delta ** (1.0 - beta) + slack
        if not excluded_c2 <= bound:
            raise NonCDInputError(
                f"Chebyshev certificate failed: {excluded_c2} > {bound}"
            )

        length_bound = (threshold / asymptotic_rate_constant(N)) ** (1.0 / N)
        max_gap = max((math.pi - f.rays[i].w.grid.D for i in Q_long), default=0.0)
        if max_gap > length_bound * (1.0 + 1e-9) + 1e-12:
            raise NonCDInputError(
                f"long ray with diameter gap {max_gap} exceeds CD length bound "
                f"{length_bound}"
            )
    return LongRayReport(
        Q_long=Q_long, beta=float(beta), threshold=float(threshold),
        excluded_c2=float(excluded_c2), chebyshev_bound=float(bound),
        long_c2=math.fsum(weights[i] * c2[i] for i in Q_long),
        long_mass=math.fsum(weights[i] for i in Q_long),
        max_length_gap=float(max_gap), length_bound=float(length_bound),
    )


@dataclass(frozen=True)
class BadSetReport:
    value: float        # energy of u outside the long-ray span
    bound: float        # (N+1) delta^{1-beta} + 1e-10, when delta <= 1


def bad_set_energy(f: RayFamily, ledger: DeficitLedger, sel: LongRayReport) -> BadSetReport:
    """Energy carried by excluded rays; bounded by (N+1) delta^{1-beta}."""
    longs = set(sel.Q_long)
    value = 0.0
    for i, r in enumerate(f.rays):
        if i in longs:
            continue
        du = first_diff(r.w.grid, r.u)
        value += r.weight * r.w.mean(du * du + r.e)
    delta = ledger.delta_plus
    if delta > 1.0:
        # the (N+1) delta^{1-beta} bound is only claimed in the delta <= 1 regime
        return BadSetReport(value=float(value), bound=None)
    bound = (f.N + 1.0) * delta ** (1.0 - sel.beta) + IDENTITY_SLACK
    if not value <= bound:
        raise NonCDInputError(
            f"bad-set energy {value} exceeds (N+1) delta^(1-beta) = {bound}"
        )
    return BadSetReport(value=float(value), bound=float(bound))


@dataclass(frozen=True)
class PerRayCosineReport:
    Q_long: tuple
    c: np.ndarray       # sign-fixed c_q (non-long rays keep nonnegative c)
    dist: np.ndarray    # per-ray L2(m_q) distance of u_q/|c_q| to the cosine
    max_dist: float


def per_ray_cosine(f: RayFamily, ledger: DeficitLedger, Q_long) -> PerRayCosineReport:
    """Distance of each long-ray profile to +-sqrt(N+1) cos, fixing sign(c_q).

    The comparison is in the ray's own coordinate: the 1-D stability theorem
    is applied needle by needle, so the target is always cos(t) on [0, D_i].
    The signs are fixed on a copy of the ledger's |c_q|.
    """
    Q_long = tuple(Q_long)
    if not Q_long:
        raise ParameterDomainError("Q_long is empty")
    amp = math.sqrt(f.N + 1.0)
    c = ledger.c.copy()
    dist = np.full(len(f.rays), np.nan)
    for i in Q_long:
        r = f.rays[i]
        if c[i] == 0.0:
            raise UndefinedQuotientError(f"long ray {i} carries no u mass")
        d_plus, d_minus = r.w.sign_distances(r.u / c[i], amp * np.cos(r.w.grid.nodes))
        if d_minus < d_plus:
            c[i] = -c[i]
        dist[i] = math.sqrt(max(min(d_plus, d_minus), 0.0))
    longs = [dist[i] for i in Q_long]
    return PerRayCosineReport(
        Q_long=Q_long, c=c, dist=dist, max_dist=float(max(longs)),
    )


@dataclass(frozen=True)
class VarianceReport:
    variance: float
    cbar: float
    envelope: float
    ratio: float
    flagged: bool
    beta: float
    gamma: float


def variance_bound(f: RayFamily, ledger: DeficitLedger, sel: LongRayReport,
                   cosines: PerRayCosineReport, gamma) -> VarianceReport:
    """Var of sign-fixed c_q over long rays against the three-term envelope
    delta^{3 gamma/N} + delta^{1-beta-gamma+gamma/N} + delta^{(beta-gamma) min(2/N, 1)}."""
    N = f.N
    beta = sel.beta
    if not 0 < gamma < beta < 1:
        raise ParameterDomainError("need 0 < gamma < beta < 1")
    if not gamma < N * (1.0 - beta) / (N - 1.0):
        raise ParameterDomainError("need gamma < N(1-beta)/(N-1)")
    weights = f.weights
    c = cosines.c
    qmass = sel.long_mass
    if qmass <= 0:
        raise ParameterDomainError("long rays carry no measure")
    cbar = math.fsum(weights[i] * c[i] for i in sel.Q_long) / qmass
    var = math.fsum(weights[i] * (c[i] - cbar) ** 2 for i in sel.Q_long) / qmass

    d = ledger.delta_plus
    envelope = (
        d ** (3.0 * gamma / N)
        + d ** (1.0 - beta - gamma + gamma / N)
        + d ** ((beta - gamma) * min(2.0 / N, 1.0))
    )
    ratio = _envelope_ratio(var, envelope, 1e-25)
    flagged = var > FLAG_FACTOR * envelope + IDENTITY_SLACK
    return VarianceReport(
        variance=float(var), cbar=float(cbar), envelope=float(envelope),
        ratio=float(ratio), flagged=bool(flagged), beta=float(beta),
        gamma=float(gamma),
    )


@dataclass(frozen=True)
class MassReport:
    lhs: float                # (1 - q(Q_long))^2
    one_minus_mass: float
    envelope: float
    ratio: float
    flagged: bool
    unspanned_mass: float
    unspanned_flagged: bool


def long_mass_bound(f: RayFamily, ledger: DeficitLedger, sel: LongRayReport, gamma) -> MassReport:
    """(1 - q(Q_long))^2 against delta^{2 gamma/N} + delta^{(beta-gamma)/N}
    + delta^{1-beta-gamma}; also the unspanned-mass envelope."""
    N = f.N
    beta = sel.beta
    if not 0 < gamma < min(beta, 1.0 - beta):
        raise ParameterDomainError("need 0 < gamma < min(beta, 1 - beta)")
    one_minus = 1.0 - sel.long_mass
    lhs = one_minus * one_minus

    d = ledger.delta_plus
    envelope = (
        d ** (2.0 * gamma / N)
        + d ** ((beta - gamma) / N)
        + d ** (1.0 - beta - gamma)
    )
    ratio = _envelope_ratio(lhs, envelope, 1e-25)
    flagged = lhs > FLAG_FACTOR * envelope + IDENTITY_SLACK

    unsp_env = (
        d ** (gamma / N)
        + d ** ((beta - gamma) / (2.0 * N))
        + d ** ((1.0 - beta - gamma) / 2.0)
    )
    unsp_flag = f.unspanned_mass > FLAG_FACTOR * unsp_env + IDENTITY_SLACK
    return MassReport(
        lhs=float(lhs), one_minus_mass=float(one_minus),
        envelope=float(envelope), ratio=float(ratio), flagged=bool(flagged),
        unspanned_mass=float(f.unspanned_mass), unspanned_flagged=bool(unsp_flag),
    )


# ---------------------------------------------------------------------------
# suspension geometry and the final assembly


def _pl_prefix(nodes, h):
    """Integral of the piecewise-linear interpolant of h over [0, nodes[j]], each j."""
    steps = 0.5 * np.diff(nodes) * (h[:-1] + h[1:])
    return np.concatenate(([0.0], np.cumsum(steps)))


def _pl_cum(nodes, h, prefix, s):
    """Integral of the piecewise-linear interpolant of h over [0, s].

    The interpolant is integrated exactly: whole cells come from prefix, a
    running sum of the cell trapezoids that adds its own rounding, and the
    cell holding s is integrated in closed form.
    """
    s = float(min(max(s, nodes[0]), nodes[-1]))
    i = int(np.searchsorted(nodes, s, side="right") - 1)
    i = min(i, len(nodes) - 2)
    ds = s - nodes[i]
    hs = h[i] + (h[i + 1] - h[i]) * (ds / (nodes[i + 1] - nodes[i]))
    return float(prefix[i] + 0.5 * ds * (h[i] + hs))


@dataclass(frozen=True, eq=False)
class SuspensionGeometry:
    """Pole placement of a ray family plus the ball-measure rule.

    The reference model measure is sampled on a uniform [0, pi] grid with the
    same resolution as the finest ray and integrated by the same
    piecewise-linear rule, so rigid families compare bitwise against it. The
    cumulative measure at the nodes of every ray and of the model is summed
    once, here, so a ball costs one search and one partial cell per ray.
    """

    family: RayFamily
    a: np.ndarray
    D: np.ndarray
    pole_distance: float       # min over rays of a + D + b, at most pi
    model: WeightedInterval
    prefixes: tuple            # _pl_prefix of each ray's density
    model_prefix: np.ndarray

    @classmethod
    def from_family(cls, f: RayFamily) -> "SuspensionGeometry":
        a = np.array([r.a for r in f.rays])
        b = np.array([r.b for r in f.rays])
        D = np.array([r.w.grid.D for r in f.rays])
        if np.any(a + D + b > math.pi + 1e-9):
            raise ParameterDomainError("ray extent a + D + b exceeds pi")
        n_ref = max(r.w.grid.n for r in f.rays)
        model = model_density(f.N, Grid.uniform(math.pi, n_ref)).normalized()
        return cls(
            family=f, a=a, D=D, pole_distance=float(min(np.min(a + D + b), math.pi)),
            model=model, prefixes=tuple(_pl_prefix(r.w.grid.nodes, r.w.h) for r in f.rays),
            model_prefix=_pl_prefix(model.grid.nodes, model.h),
        )

    @property
    def delta_pole(self):
        # per-ray length deficit: each renormalized truncated ray satisfies
        # m_i([0,x])/m_i-mass <= m_N([0, x + (pi - D_i)])
        return float(np.max(math.pi - self.D))

    def ball(self, r):
        """m(B_r(P_N)) under the suspension rule."""
        total = self.family.unspanned_mass if r >= self.pole_distance else 0.0
        for ray, prefix, a, D in zip(self.family.rays, self.prefixes, self.a, self.D):
            reach = min(max(r - a, 0.0), D)
            if reach > 0:
                nodes = ray.w.grid.nodes
                total += ray.weight * _pl_cum(nodes, ray.w.h, prefix, reach) / ray.w.total_mass
        return float(total)

    def model_ball(self, r):
        """m_N([0, r]) by the same piecewise-linear rule as ball()."""
        r = min(max(r, 0.0), math.pi)
        if r <= 0:
            return 0.0
        nodes = self.model.grid.nodes
        return float(_pl_cum(nodes, self.model.h, self.model_prefix, r) / self.model.total_mass)


@dataclass(frozen=True)
class VolumeReport:
    ball: float
    lower: float
    upper: float
    ok_lower: bool
    ok_upper: bool


def volume_control(geometry: SuspensionGeometry, r) -> VolumeReport:
    """m_N([0,r]) <= m(B_r(P_N)) <= m_N([0, r + delta_pole]), slack VOLUME_SLACK."""
    if not 0 < r < geometry.pole_distance:
        raise ParameterDomainError(
            f"radius must lie in (0, {geometry.pole_distance})"
        )
    ball = geometry.ball(r)
    lower = geometry.model_ball(r)
    upper = geometry.model_ball(min(r + geometry.delta_pole, math.pi))
    ok_lower = ball >= lower - VOLUME_SLACK
    ok_upper = ball <= upper + VOLUME_SLACK
    if not (ok_lower and ok_upper):
        raise NonCDInputError(
            f"ball measure {ball} at r={r} outside [{lower}, {upper}]"
        )
    return VolumeReport(ball=ball, lower=lower, upper=upper,
                        ok_lower=ok_lower, ok_upper=ok_upper)


@dataclass(frozen=True)
class PoleReport:
    max_start: float   # max over Q_long of a_i
    max_end: float     # max over Q_long of pi - (a_i + D_i)
    threshold: float   # 10 delta^{beta/N} + 1e-10
    flagged: bool


def pole_concentration(geometry: SuspensionGeometry, ledger: DeficitLedger,
                       sel: LongRayReport) -> PoleReport:
    """Offsets of long-ray endpoints from the poles; scaling diagnostic."""
    if not sel.Q_long:
        raise ParameterDomainError("Q_long is empty")
    max_start = max(float(geometry.a[i]) for i in sel.Q_long)
    max_end = max(float(math.pi - geometry.a[i] - geometry.D[i]) for i in sel.Q_long)
    threshold = (FLAG_FACTOR * ledger.delta_plus ** (sel.beta / geometry.family.N)
                 + IDENTITY_SLACK)
    return PoleReport(max_start=max_start, max_end=max_end, threshold=threshold,
                      flagged=max(max_start, max_end) > threshold)


@dataclass(frozen=True)
class AssembleReport:
    final_dist: float
    final_dist_sq: float
    delta: float
    eta: float         # target exponent 1/(8N+4)
    ratio: float       # final_dist / delta^eta
    sign: float        # global sign applied to u


def assemble_main(geometry: SuspensionGeometry, ledger: DeficitLedger) -> AssembleReport:
    """||u - sqrt(N+1) cos(d(P_N, .))||_{L2(m)} with the theorem's sign choice.

    In suspension coordinates ray i occupies [a_i, a_i + D_i], so its
    contribution compares u_i(t) with sqrt(N+1) cos(t + a_i); the unspanned
    set carries u = 0 and contributes its mass times the model average of
    (N+1) cos^2.
    """
    f = geometry.family
    amp = math.sqrt(f.N + 1.0)
    cos2_mass = geometry.model.mean(np.cos(geometry.model.grid.nodes) ** 2)
    acc_plus = acc_minus = f.unspanned_mass * (f.N + 1.0) * cos2_mass
    for r, a in zip(f.rays, geometry.a):
        d_plus, d_minus = r.w.sign_distances(r.u, amp * np.cos(r.w.grid.nodes + a))
        acc_plus += r.weight * d_plus
        acc_minus += r.weight * d_minus
    best_sign = 1.0 if acc_plus <= acc_minus else -1.0
    final_sq = max(min(acc_plus, acc_minus), 0.0)
    final = math.sqrt(final_sq)

    eta = final_exponent(f.N)
    ratio = _envelope_ratio(final, ledger.delta_plus ** eta, 1e-12)
    return AssembleReport(
        final_dist=float(final), final_dist_sq=float(final_sq),
        delta=ledger.delta, eta=float(eta), ratio=float(ratio),
        sign=float(best_sign),
    )


# ---------------------------------------------------------------------------
# the whole chain


@dataclass(frozen=True, eq=False)
class Localization:
    """Every stage report of one localize() run, in chain order."""

    family: RayFamily          # the normalized family the stages ran on
    ledger: DeficitLedger
    selection: LongRayReport
    bad_set: BadSetReport
    cosines: PerRayCosineReport
    variance: VarianceReport
    mass: MassReport
    pole: PoleReport
    volume_checked: int        # radii of the ball-volume spot-check
    assembly: AssembleReport

    @property
    def flags(self):
        """The scaling diagnostics that flag, by name; any of them means exit 2."""
        return {
            "variance": self.variance.flagged,
            "long_mass": self.mass.flagged,
            "unspanned": self.mass.unspanned_flagged,
            "pole": self.pole.flagged,
        }


def localize(f: RayFamily, beta=None, gamma=None) -> Localization:
    """Normalize f and run the globalization chain on it, stage by stage.

    beta and gamma default to default_beta(N) and default_gamma(N). The
    ball-volume sandwich is spot-checked at 16 radii away from the pole
    distance, on suspension-complete families only (no unspanned mass, every
    ray starting at the pole): the sandwich is claimed for no others.
    """
    f = normalize(f)
    beta = default_beta(f.N) if beta is None else beta
    gamma = default_gamma(f.N) if gamma is None else gamma
    ledger = global_deficit(f)
    sel = select_long_rays(f, ledger, beta)
    bad = bad_set_energy(f, ledger, sel)
    cosines = per_ray_cosine(f, ledger, sel.Q_long)
    var = variance_bound(f, ledger, sel, cosines, gamma)
    mass = long_mass_bound(f, ledger, sel, gamma)
    geo = SuspensionGeometry.from_family(f)
    pole = pole_concentration(geo, ledger, sel)

    radii = ()
    if f.unspanned_mass == 0.0 and all(r.a == 0.0 for r in f.rays) and geo.pole_distance > 0.4:
        radii = np.linspace(0.1, geo.pole_distance - 0.05, 16)
    for r in radii:
        volume_control(geo, float(r))

    return Localization(
        family=f, ledger=ledger, selection=sel, bad_set=bad, cosines=cosines,
        variance=var, mass=mass, pole=pole,
        volume_checked=len(radii), assembly=assemble_main(geo, ledger),
    )


# ---------------------------------------------------------------------------
# rayfam-v1 files


def _build_density(kind, params, N, D, base):
    """The unit-mass density of one ray. A model or truncated density that
    float64 cannot sample is refused (require_model_in_range, the rule of
    truncated_model and spectrum --model) with ParameterDomainError."""
    n = float(params.get("n", 4096))
    if not n.is_integer():
        raise ConfigError(f"density n must be a whole number, got {n!r}")
    n = int(n)
    if kind == "model":
        if not abs(D - math.pi) <= 1e-9:
            raise ConfigError("model density requires D = pi")
        D = math.pi
    if kind in ("model", "truncated"):
        w = require_model_in_range(model_density(N, Grid.uniform(D, n)))
    elif kind == "csv":
        path = params.get("path")
        if not path:
            raise ConfigError("csv density needs a path")
        w = load_density_csv(os.path.join(base, path), N)
        if not abs(w.grid.D - D) <= 1e-9:
            raise ConfigError(
                f"density file spans {w.grid.D}, ray declares D={D}"
            )
    else:
        raise ConfigError(f"unknown density kind {kind!r}")
    return w.normalized()


def _build_u(kind, params, N, grid, base):
    t = grid.nodes
    amp = math.sqrt(N + 1.0)
    if kind == "cosine":
        scale = float(params.get("scale", 1.0))
        return scale * amp * np.cos(t)
    if kind == "perturbed":
        scale = float(params.get("scale", 1.0))
        s = float(params.get("s", 0.0))
        return scale * amp * (np.cos(t) + s * np.sin(2.0 * t))
    if kind == "csv":
        return _load_on_grid("u", params, grid, base)
    raise ConfigError(f"unknown u kind {kind!r}")


def _build_e(kind, params, grid, base):
    if kind == "zero":
        return np.zeros(len(grid.nodes))
    if kind == "const":
        value = float(params.get("value", 0.0))
        if value < 0:
            raise ConfigError("constant orthogonal energy must be >= 0")
        return np.full(len(grid.nodes), value)
    if kind == "csv":
        return _load_on_grid("e", params, grid, base)
    raise ConfigError(f"unknown e kind {kind!r}")


def _load_on_grid(what, params, grid, base):
    # the `what` column of a `t,<what>` CSV (read_csv) whose t column is the ray grid
    path = params.get("path")
    if not path:
        raise ConfigError(f"csv {what} needs a path")
    cols = read_csv(os.path.join(base, path), ("t", what))
    tt = cols["t"]
    if len(tt) != len(grid.nodes) or np.max(np.abs(tt - grid.nodes)) > 1e-9:
        raise ConfigError(f"{path}: samples do not match the ray grid")
    return cols[what]


def load_family(path) -> RayFamily:
    """Read a rayfam-v1 JSON family; densities are renormalized to unit mass."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"{path}: unreadable family file ({exc})") from exc
    if doc.get("schema") != SCHEMA:
        raise ConfigError(f"{path}: expected schema {SCHEMA!r}")
    base = os.path.dirname(os.path.abspath(path))
    try:
        N = float(doc["N"])
        unspanned = float(doc.get("unspanned_mass", 0.0))
        items = doc["rays"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: malformed family ({exc})") from exc
    if not isinstance(items, list) or not items:
        raise ConfigError(f"{path}: rays must be a non-empty list")
    rays = []
    for k, item in enumerate(items):
        try:
            weight = float(item["weight"])
            D = float(item["D"])
            a = float(item.get("a", 0.0))
            b = float(item.get("b", 0.0))
            dspec = dict(item["density"])
            uspec = dict(item["u"])
            espec = dict(item.get("e", {"kind": "zero"}))
            w = _build_density(dspec.pop("kind", None), dspec, N, D, base)
            u = _build_u(uspec.pop("kind", None), uspec, N, w.grid, base)
            e = _build_e(espec.pop("kind", None), espec, w.grid, base)
            rays.append(Ray(weight=weight, w=w, u=u, e=e, a=a, b=b))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"{path}: ray {k} malformed ({exc})") from exc
        except (ParameterDomainError, NormalizationError) as exc:
            raise ConfigError(f"{path}: ray {k}: {exc}") from exc
    try:
        return RayFamily(N=N, rays=tuple(rays), unspanned_mass=unspanned)
    except (ParameterDomainError, NormalizationError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
