"""Ray-family pipeline: loading, normalization, selection, certificates,
volume and pole control, and the final cosine assembly."""
import dataclasses
import json
import math

import numpy as np
import pytest

from obatalab.errors import (
    ConfigError,
    NonCDInputError,
    NormalizationError,
    ParameterDomainError,
    UndefinedQuotientError,
)
from obatalab.localization import (
    Ray,
    RayFamily,
    SuspensionGeometry,
    assemble_main,
    bad_set_energy,
    default_beta,
    default_gamma,
    final_exponent,
    global_deficit,
    load_family,
    localize,
    long_mass_bound,
    normalize,
    per_ray_cosine,
    pole_concentration,
    select_long_rays,
    variance_bound,
    volume_control,
)
from obatalab.measures import Grid, WeightedInterval, model_density

# Pipeline regression values recorded from the first verified run on the
# shipped fixtures; the acceptance suite re-derives the bounds they satisfy.
RIGID_DELTA_N2 = -2.9413710755932243e-07  # re-derived under the closed-form omega_N
RIGID_DELTA_N3 = -5.882742173390909e-07
SHORTRAY_DELTA = 0.06359707807580683
SHORTRAY_EXCLUDED_C2 = 0.025709382483405277
SHORTRAY_CHEBYSHEV = 0.3321815583125938
SHORTRAY_BAD = 0.11501593856758874
SHORTRAY_BAD_BOUND = 0.9965431766291212
SHORTRAY_FINAL = 0.06297626663229096
SHORTRAY_POLE_THR = 4.375534866111281
UNSPANNED_FINAL = 0.32036447816134583


def _unit(w):
    return WeightedInterval(grid=w.grid, h=w.h / w.total_mass, K=w.K, N=w.N)


def _model_ray_family(N=2.0, n=2048, shape=None, weight=1.0):
    w = _unit(model_density(N, Grid.uniform(math.pi, n)))
    t = w.grid.nodes
    u = math.sqrt(N + 1.0) * (np.cos(t) if shape is None else shape(t))
    ray = Ray(weight=weight, w=w, u=u, e=np.zeros(n + 1))
    return RayFamily(N=N, rays=(ray,))


def _rigid_plus_short(n=4096):
    # near-rigid model ray plus a tiny-weight short ray carrying no u
    full = _unit(model_density(2.0, Grid.uniform(math.pi, n)))
    trunc = _unit(model_density(2.0, Grid.uniform(2.8, n)))
    eps = 1e-7
    rays = (
        Ray(weight=1.0 - eps, w=full,
            u=math.sqrt(3.0) * np.cos(full.grid.nodes), e=np.zeros(n + 1)),
        Ray(weight=eps, w=trunc, u=np.zeros(n + 1), e=np.zeros(n + 1)),
    )
    return normalize(RayFamily(N=2.0, rays=rays))


# --------------------------------------------------------------------------
# rayfam-v1 loading


def _ray_doc(**over):
    doc = {
        "D": math.pi, "a": 0.0, "b": 0.0, "weight": 1.0,
        "density": {"kind": "model", "n": 256},
        "u": {"kind": "cosine", "scale": 1.0},
        "e": {"kind": "zero"},
    }
    doc.update(over)
    return doc


def _write_family(path, **over):
    doc = {"schema": "rayfam-v1", "N": 2.0, "unspanned_mass": 0.0,
           "rays": [_ray_doc()]}
    doc.update(over)
    path.write_text(json.dumps(doc))
    return str(path)


def test_load_family_rigid(fixtures_dir):
    fam = load_family(fixtures_dir / "rigid.json")
    assert fam.N == 2.0
    assert len(fam.rays) == 1
    assert fam.unspanned_mass == 0.0
    ray = fam.rays[0]
    assert ray.weight == 1.0
    assert abs(ray.w.grid.D - math.pi) <= 1e-12
    assert abs(ray.w.total_mass - 1.0) <= 1e-9
    t = ray.w.grid.nodes
    assert np.max(np.abs(ray.u - math.sqrt(3.0) * np.cos(t))) <= 1e-12
    assert np.all(ray.e == 0.0)


def test_load_family_error_paths(tmp_path):
    p = tmp_path / "fam.json"
    p.write_text("{not json")
    with pytest.raises(ConfigError, match="unreadable family file"):
        load_family(str(p))
    with pytest.raises(ConfigError, match="expected schema"):
        load_family(_write_family(p, schema="rayfam-v0"))
    with pytest.raises(ConfigError, match="non-empty list"):
        load_family(_write_family(p, rays=[]))
    with pytest.raises(ConfigError, match="unknown density kind"):
        load_family(_write_family(
            p, rays=[_ray_doc(density={"kind": "gaussian"})]))
    with pytest.raises(ConfigError, match="requires D = pi"):
        load_family(_write_family(
            p, rays=[_ray_doc(D=2.0)]))
    with pytest.raises(ConfigError, match="sum to 1"):
        load_family(_write_family(p, rays=[_ray_doc(weight=0.5)]))
    bad_ray = _ray_doc()
    del bad_ray["D"]
    with pytest.raises(ConfigError, match="ray 0 malformed"):
        load_family(_write_family(p, rays=[bad_ray]))


def _family_with(where, field, value):
    """A rayfam-v1 document of one ray with every number the schema reads,
    field of where (the family, the ray or one of its specs) set to value."""
    ray = _ray_doc(u={"kind": "perturbed", "scale": 1.0, "s": 0.0},
                   e={"kind": "const", "value": 0.0})
    doc = {"unspanned_mass": 0.0, "rays": [ray]}
    target = doc if where == "family" else ray if where == "ray" else ray[where]
    target[field] = value
    return doc


@pytest.mark.parametrize("where, field, value", [
    ("family", "unspanned_mass", math.nan),
    ("ray", "weight", math.nan),
    ("ray", "a", math.nan),
    ("ray", "b", math.inf),
    ("density", "n", None),
    ("density", "n", math.nan),
    ("density", "n", "abc"),
    ("density", "n", 256.7),
    ("u", "scale", math.nan),
    ("u", "scale", "abc"),
    ("u", "s", math.nan),
    ("u", "s", "abc"),
    ("e", "value", math.nan),
    ("e", "value", "abc"),
])
def test_load_family_refuses_non_finite_or_malformed_field(tmp_path, where, field, value):
    # NaN used to pass every check (to a Chebyshev failure, or to NaN in the
    # summary), a non-numeric value escaped as ValueError or TypeError, and
    # n = 256.7 was truncated to 256
    with pytest.raises(ConfigError):
        load_family(_write_family(tmp_path / "fam.json", **_family_with(where, field, value)))


def test_ray_refuses_non_finite_samples():
    w = _model_ray_family(n=64).rays[0].w
    good = np.zeros(65)
    bad = good.copy()
    bad[7] = math.nan
    for u, e in ((bad, good), (good, bad)):
        with pytest.raises(ParameterDomainError, match="must be finite"):
            Ray(weight=1.0, w=w, u=u, e=e)


def test_load_family_csv_grid_mismatch(tmp_path):
    # u samples on the wrong grid are rejected at load time
    n = 64
    t = Grid.uniform(math.pi, n).nodes
    csv = tmp_path / "u.csv"
    lines = ["t,u"] + [f"{float(x)!r},{float(v)!r}"
                       for x, v in zip(t[:-1], np.cos(t[:-1]))]
    csv.write_text("\n".join(lines) + "\n")
    p = tmp_path / "fam.json"
    with pytest.raises(ConfigError, match="do not match the ray grid"):
        load_family(_write_family(
            p, rays=[_ray_doc(density={"kind": "model", "n": n},
                              u={"kind": "csv", "path": "u.csv"})]))


def test_load_family_csv_header_checked(tmp_path):
    # a samples file must name its columns t,<u or e>; its header used to be skipped unread
    n = 64
    t = Grid.uniform(math.pi, n).nodes
    (tmp_path / "u.csv").write_text("t,h\n" + "".join(
        f"{float(x)!r},{float(v)!r}\n" for x, v in zip(t, np.cos(t))))
    with pytest.raises(ConfigError, match="expected header 't,u'"):
        load_family(_write_family(
            tmp_path / "fam.json", rays=[_ray_doc(density={"kind": "model", "n": n},
                                                  u={"kind": "csv", "path": "u.csv"})]))


# --------------------------------------------------------------------------
# normalization


def test_normalize_rigid_is_identity(fixtures_dir):
    fam = load_family(fixtures_dir / "rigid.json")
    out = normalize(fam)
    assert out is fam
    assert normalize(out) is out


def test_normalize_rescales_scaled_cosine():
    n = 1024
    w = _unit(model_density(2.0, Grid.uniform(math.pi, n)))
    t = w.grid.nodes
    ray = Ray(weight=1.0, w=w, u=2.0 * math.sqrt(3.0) * np.cos(t),
              e=np.zeros(n + 1))
    fam = normalize(RayFamily(N=2.0, rays=(ray,)))
    c2 = np.trapezoid(fam.rays[0].w.h * fam.rays[0].u ** 2, t)
    assert abs(c2 / fam.rays[0].w.total_mass - 1.0) <= 1e-12
    mean = np.trapezoid(fam.rays[0].w.h * fam.rays[0].u, t)
    assert abs(mean) <= 1e-9


def test_normalize_multiray_unit_norm(fixtures_dir):
    fam = normalize(load_family(fixtures_dir / "shortray_n2.json"))
    total = 0.0
    for r in fam.rays:
        t = r.w.grid.nodes
        total += r.weight * np.trapezoid(r.w.h * r.u ** 2, t) / r.w.total_mass
    assert abs(total - 1.0) <= 1e-7


def test_normalize_all_zero_raises():
    n = 256
    w = _unit(model_density(2.0, Grid.uniform(math.pi, n)))
    ray = Ray(weight=1.0, w=w, u=np.zeros(n + 1), e=np.zeros(n + 1))
    fam = RayFamily(N=2.0, rays=(ray,))
    with pytest.raises(NormalizationError, match="identically zero"):
        normalize(fam)


def test_family_weights_must_sum_to_one():
    n = 256
    w = _unit(model_density(2.0, Grid.uniform(math.pi, n)))
    ray = Ray(weight=0.9, w=w, u=np.cos(w.grid.nodes), e=np.zeros(n + 1))
    with pytest.raises(NormalizationError, match="sum to 1"):
        RayFamily(N=2.0, rays=(ray,))


def test_ray_validation():
    n = 256
    w = _unit(model_density(2.0, Grid.uniform(math.pi, n)))
    u = np.cos(w.grid.nodes)
    with pytest.raises(ParameterDomainError, match="sampled on the ray grid"):
        Ray(weight=1.0, w=w, u=u[:-1], e=np.zeros(n + 1))
    with pytest.raises(ParameterDomainError, match="must be >= 0"):
        Ray(weight=1.0, w=w, u=u, e=np.full(n + 1, -1e-3))
    with pytest.raises(ParameterDomainError, match="weights must be positive"):
        Ray(weight=0.0, w=w, u=u, e=np.zeros(n + 1))
    ray = Ray(weight=1.0, w=w, u=u, e=np.zeros(n + 1))
    with pytest.raises(ParameterDomainError, match="N must exceed 1"):
        RayFamily(N=math.inf, rays=(ray,))


# --------------------------------------------------------------------------
# global deficit ledger


def test_global_deficit_rigid(fixtures_dir):
    fam = normalize(load_family(fixtures_dir / "rigid.json"))
    led = global_deficit(fam)
    assert -1e-6 <= led.delta <= 0.0
    assert math.isclose(led.delta, RIGID_DELTA_N2, rel_tol=1e-9)
    assert led.c.shape == (1,)
    assert abs(led.c[0] - 1.0) <= 1e-6
    # delta_q divides by c^2, so it sits at the same roundoff scale as delta
    assert -1e-6 <= led.delta_q[0] <= 0.0


def test_global_deficit_rigid_n3(fixtures_dir):
    fam = normalize(load_family(fixtures_dir / "rigid_n3.json"))
    led = global_deficit(fam)
    assert -1e-6 <= led.delta <= 0.0
    assert math.isclose(led.delta, RIGID_DELTA_N3, rel_tol=1e-9)


def test_global_deficit_requires_normalization():
    n = 512
    w = _unit(model_density(2.0, Grid.uniform(math.pi, n)))
    ray = Ray(weight=1.0, w=w, u=2.0 * math.sqrt(3.0) * np.cos(w.grid.nodes),
              e=np.zeros(n + 1))
    fam = RayFamily(N=2.0, rays=(ray,))
    with pytest.raises(NormalizationError, match="run normalize first"):
        global_deficit(fam)


def test_global_deficit_counts_orthogonal_energy(fixtures_dir):
    # adding constant e shifts delta by exactly that amount
    base = normalize(load_family(fixtures_dir / "rigid.json"))
    delta0 = global_deficit(base).delta
    r = base.rays[0]
    n = len(r.w.grid.nodes)
    ray = Ray(weight=1.0, w=r.w, u=r.u, e=np.full(n, 0.2))
    led = global_deficit(RayFamily(N=2.0, rays=(ray,)))
    assert abs(led.delta - (delta0 + 0.2)) <= 1e-12


# --------------------------------------------------------------------------
# long-ray selection


def test_select_rigid_takes_all_rays(fixtures_dir):
    fam = normalize(load_family(fixtures_dir / "rigid.json"))
    led = global_deficit(fam)
    sel = select_long_rays(fam, led, default_beta(fam.N))
    assert sel.Q_long == (0,)
    assert sel.threshold == 0.0
    assert sel.excluded_c2 == 0.0
    assert sel.chebyshev_bound == 0.0
    assert sel.max_length_gap <= 1e-6
    assert sel.beta == default_beta(2.0)


def test_select_shortray_chebyshev(fixtures_dir):
    fam = normalize(load_family(fixtures_dir / "shortray_n2.json"))
    led = global_deficit(fam)
    assert math.isclose(led.delta, SHORTRAY_DELTA, rel_tol=1e-9)
    sel = select_long_rays(fam, led, default_beta(fam.N))
    assert sel.Q_long == (0,)
    assert math.isclose(sel.threshold, led.delta ** sel.beta, rel_tol=1e-12)
    assert math.isclose(sel.excluded_c2, SHORTRAY_EXCLUDED_C2, rel_tol=1e-9)
    assert math.isclose(sel.chebyshev_bound, SHORTRAY_CHEBYSHEV, rel_tol=1e-9)
    assert sel.excluded_c2 <= sel.chebyshev_bound
    assert sel.max_length_gap <= sel.length_bound


def test_select_beta_validation(fixtures_dir):
    fam = normalize(load_family(fixtures_dir / "rigid.json"))
    led = global_deficit(fam)
    for beta in (0.0, 1.0, -0.2):
        with pytest.raises(ParameterDomainError, match="0 < beta < 1"):
            select_long_rays(fam, led, beta=beta)


def test_select_nonpositive_deficit_needs_full_rays():
    fam = _rigid_plus_short()
    led = global_deficit(fam)
    assert led.delta <= 0.0
    with pytest.raises(NonCDInputError, match="nonpositive deficit with a short ray"):
        select_long_rays(fam, led, default_beta(fam.N))


def test_select_length_certificate(fixtures_dir):
    fam = normalize(load_family(fixtures_dir / "noncd_length.json"))
    led = global_deficit(fam)
    with pytest.raises(NonCDInputError, match="exceeds CD length bound"):
        select_long_rays(fam, led, default_beta(fam.N))


# --------------------------------------------------------------------------
# bad-set energy


def test_bad_set_rigid_zero(fixtures_dir):
    fam = normalize(load_family(fixtures_dir / "rigid.json"))
    led = global_deficit(fam)
    sel = select_long_rays(fam, led, default_beta(fam.N))
    bad = bad_set_energy(fam, led, sel)
    assert bad.value == 0.0
    assert bad.bound == 1e-10


def test_bad_set_shortray(fixtures_dir):
    fam = normalize(load_family(fixtures_dir / "shortray_n2.json"))
    led = global_deficit(fam)
    sel = select_long_rays(fam, led, default_beta(fam.N))
    bad = bad_set_energy(fam, led, sel)
    assert math.isclose(bad.value, SHORTRAY_BAD, rel_tol=1e-9)
    assert math.isclose(bad.bound, SHORTRAY_BAD_BOUND, rel_tol=1e-9)


def test_bad_set_no_bound_above_unit_deficit():
    # a strong sin(3t) component pushes delta past 1 and past the threshold,
    # so the single ray lands in the bad set and the envelope is not claimed
    fam = normalize(_model_ray_family(
        shape=lambda t: np.cos(t) + 2.0 * np.sin(3.0 * t)))
    led = global_deficit(fam)
    assert led.delta > 1.0
    sel = select_long_rays(fam, led, default_beta(fam.N))
    assert sel.Q_long == ()
    assert sel.excluded_c2 <= sel.chebyshev_bound
    bad = bad_set_energy(fam, led, sel)
    assert bad.bound is None
    assert math.isclose(bad.value, led.delta + 2.0, rel_tol=1e-9)


# --------------------------------------------------------------------------
# per-ray cosine comparison


def test_per_ray_rigid(fixtures_dir):
    fam = normalize(load_family(fixtures_dir / "rigid.json"))
    led = global_deficit(fam)
    sel = select_long_rays(fam, led, default_beta(fam.N))
    prc = per_ray_cosine(fam, led, sel.Q_long)
    assert abs(prc.c[0] - 1.0) <= 1e-6
    assert 0.0 <= prc.max_dist <= 1e-6
    assert prc.dist[0] == prc.max_dist


def test_per_ray_flip_fixes_sign(fixtures_dir):
    fam = normalize(load_family(fixtures_dir / "flip_n2.json"))
    led = global_deficit(fam)
    sel = select_long_rays(fam, led, default_beta(fam.N))
    prc = per_ray_cosine(fam, led, sel.Q_long)
    assert prc.c[0] < 0.0
    assert abs(prc.c[0] + 1.0) <= 1e-6
    assert prc.max_dist <= 1e-6


def test_per_ray_validation():
    fam = _rigid_plus_short()
    led = global_deficit(fam)
    with pytest.raises(ParameterDomainError, match="Q_long is empty"):
        per_ray_cosine(fam, led, ())
    with pytest.raises(UndefinedQuotientError, match="carries no u mass"):
        per_ray_cosine(fam, led, (1,))


# --------------------------------------------------------------------------
# variance and mass certificates


def test_variance_rigid(fixtures_dir):
    fam = normalize(load_family(fixtures_dir / "rigid.json"))
    led = global_deficit(fam)
    sel = select_long_rays(fam, led, default_beta(fam.N))
    var = variance_bound(fam, led, sel, per_ray_cosine(fam, led, sel.Q_long),
                         default_gamma(fam.N))
    assert var.variance == 0.0
    assert var.ratio == 0.0
    assert not var.flagged
    assert abs(var.cbar - 1.0) <= 1e-6


def test_variance_param_guards(fixtures_dir):
    fam = normalize(load_family(fixtures_dir / "rigid.json"))
    led = global_deficit(fam)
    sel = select_long_rays(fam, led, beta=0.3)
    prc = per_ray_cosine(fam, led, sel.Q_long)
    with pytest.raises(ParameterDomainError, match="0 < gamma < beta < 1"):
        variance_bound(fam, led, sel, prc, gamma=0.4)
    # N = 2: gamma must stay below N(1-beta)/(N-1) = 2(1-beta)
    sel = select_long_rays(fam, led, beta=0.9)
    with pytest.raises(ParameterDomainError, match="gamma < N"):
        variance_bound(fam, led, sel, prc, gamma=0.3)


def test_mass_rigid(fixtures_dir):
    fam = normalize(load_family(fixtures_dir / "rigid.json"))
    led = global_deficit(fam)
    sel = select_long_rays(fam, led, default_beta(fam.N))
    mass = long_mass_bound(fam, led, sel, default_gamma(fam.N))
    assert mass.lhs == 0.0
    assert mass.one_minus_mass == 0.0
    assert mass.ratio == 0.0
    assert not mass.flagged
    assert mass.unspanned_mass == 0.0
    assert not mass.unspanned_flagged


def test_mass_param_guard(fixtures_dir):
    fam = normalize(load_family(fixtures_dir / "rigid.json"))
    led = global_deficit(fam)
    sel = select_long_rays(fam, led, beta=0.8)
    with pytest.raises(ParameterDomainError, match="min\\(beta, 1 - beta\\)"):
        long_mass_bound(fam, led, sel, gamma=0.3)


def test_unspanned_family_flags(fixtures_dir):
    run = localize(load_family(fixtures_dir / "unspanned_bad_n2.json"))
    # zero deficit cannot pay for missing mass: both diagnostics flag
    assert run.ledger.delta <= 0.0
    assert run.family.unspanned_mass > 0.0
    assert run.mass.flagged
    assert run.mass.unspanned_flagged
    assert not run.variance.flagged
    assert math.isclose(run.assembly.final_dist, UNSPANNED_FINAL, rel_tol=1e-9)
    assert run.assembly.ratio == math.inf


# --------------------------------------------------------------------------
# suspension geometry, volume, poles


def test_volume_rigid_exact(fixtures_dir):
    fam = normalize(load_family(fixtures_dir / "rigid.json"))
    geo = SuspensionGeometry.from_family(fam)
    assert geo.pole_distance == math.pi
    assert geo.delta_pole == 0.0
    rep = volume_control(geo, 1.0)
    assert rep.ball - rep.lower == 0.0
    assert rep.ball - rep.upper == 0.0
    assert rep.ok_lower and rep.ok_upper


def test_volume_monotone_in_radius(fixtures_dir):
    fam = normalize(load_family(fixtures_dir / "rigid.json"))
    geo = SuspensionGeometry.from_family(fam)
    balls = [volume_control(geo, r).ball for r in (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)]
    assert all(b2 > b1 for b1, b2 in zip(balls, balls[1:]))


def test_volume_mixed_family_within_bounds(fixtures_dir):
    fam = normalize(load_family(fixtures_dir / "volume_mixed_n3.json"))
    geo = SuspensionGeometry.from_family(fam)
    for frac in (0.15, 0.3, 0.5, 0.7, 0.85):
        rep = volume_control(geo, frac * geo.pole_distance)
        assert rep.lower - 1e-9 <= rep.ball <= rep.upper + 1e-9


def test_volume_radius_validation(fixtures_dir):
    fam = normalize(load_family(fixtures_dir / "rigid.json"))
    geo = SuspensionGeometry.from_family(fam)
    for r in (0.0, geo.pole_distance, 4.0):
        with pytest.raises(ParameterDomainError, match="radius must lie in"):
            volume_control(geo, r)


def _fsum_pl_cum(nodes, h, s):
    # reference rule: every call sums the whole cells below s with math.fsum
    # (over a list, which gives the same sum as over the array, faster)
    s = float(min(max(s, nodes[0]), nodes[-1]))
    steps = 0.5 * np.diff(nodes) * (h[:-1] + h[1:])
    i = min(int(np.searchsorted(nodes, s, side="right") - 1), len(nodes) - 2)
    ds = s - nodes[i]
    hs = h[i] + (h[i + 1] - h[i]) * (ds / (nodes[i + 1] - nodes[i]))
    return float(math.fsum(steps[:i].tolist()) + 0.5 * ds * (h[i] + hs))


def _fsum_ball(geo, r):
    total = geo.family.unspanned_mass if r >= geo.pole_distance else 0.0
    for q, ray, a, D in zip(geo.family.weights, geo.family.rays, geo.a, geo.D):
        reach = min(max(r - a, 0.0), D)
        if reach > 0:
            total += q * _fsum_pl_cum(ray.w.grid.nodes, ray.w.h, reach) / ray.w.total_mass
    return float(total)


def _fsum_model_ball(geo, r):
    r = min(max(r, 0.0), math.pi)
    if r <= 0:
        return 0.0
    m = geo.model
    return _fsum_pl_cum(m.grid.nodes, m.h, r) / m.total_mass


def test_ball_prefix_matches_fsum_rule(fixtures_dir):
    # the prefix sums add only the rounding of a running sum, on every
    # shipped family: at localize()'s 16 spot radii, at node boundaries
    # (every 128th node of each ray and of the model) and at each ray's ends
    paths = sorted(fixtures_dir.glob("*.json"))
    assert len(paths) >= 19
    for path in paths:
        geo = SuspensionGeometry.from_family(normalize(load_family(path)))
        radii = [*np.linspace(0.1, geo.pole_distance - 0.05, 16),
                 *geo.model.grid.nodes[::128], geo.model.grid.nodes[-1]]
        for ray, a, D in zip(geo.family.rays, geo.a, geo.D):
            nodes = ray.w.grid.nodes
            radii += [*(a + nodes[::128]), a + nodes[-1], a, a + D]
        for r in sorted(set(map(float, radii))):
            for got, want in ((geo.ball(r), _fsum_ball(geo, r)),
                              (geo.model_ball(r), _fsum_model_ball(geo, r))):
                assert abs(got - want) <= 1e-13 * abs(want), (path.name, r, got, want)


def test_volume_breach_raises():
    # a ray starting 1.0 away from the pole leaves B_0.5 empty
    n = 1024
    w = _unit(model_density(2.0, Grid.uniform(2.0, n)))
    ray = Ray(weight=1.0, w=w, u=math.sqrt(3.0) * np.cos(w.grid.nodes),
              e=np.zeros(n + 1), a=1.0, b=0.1)
    geo = SuspensionGeometry.from_family(RayFamily(N=2.0, rays=(ray,)))
    with pytest.raises(NonCDInputError, match="ball measure"):
        volume_control(geo, 0.5)


def test_geometry_extent_validation():
    n = 256
    w = _unit(model_density(2.0, Grid.uniform(3.0, n)))
    ray = Ray(weight=1.0, w=w, u=np.cos(w.grid.nodes), e=np.zeros(n + 1),
              a=0.5, b=0.5)
    fam = RayFamily(N=2.0, rays=(ray,))
    with pytest.raises(ParameterDomainError, match="exceeds pi"):
        SuspensionGeometry.from_family(fam)


def test_pole_rigid(fixtures_dir):
    fam = normalize(load_family(fixtures_dir / "rigid.json"))
    led = global_deficit(fam)
    sel = select_long_rays(fam, led, default_beta(fam.N))
    geo = SuspensionGeometry.from_family(fam)
    pole = pole_concentration(geo, led, sel)
    assert pole.max_start == 0.0
    assert pole.max_end <= 1e-12
    assert pole.threshold == 1e-10
    assert not pole.flagged


def test_pole_shortray_threshold(fixtures_dir):
    fam = normalize(load_family(fixtures_dir / "shortray_n2.json"))
    led = global_deficit(fam)
    sel = select_long_rays(fam, led, default_beta(fam.N))
    geo = SuspensionGeometry.from_family(fam)
    pole = pole_concentration(geo, led, sel)
    assert math.isclose(pole.threshold, SHORTRAY_POLE_THR, rel_tol=1e-9)
    assert pole.max_end <= 1e-12
    assert not pole.flagged


def test_pole_empty_raises(fixtures_dir):
    fam = normalize(load_family(fixtures_dir / "rigid.json"))
    led = global_deficit(fam)
    sel = select_long_rays(fam, led, default_beta(fam.N))
    geo = SuspensionGeometry.from_family(fam)
    with pytest.raises(ParameterDomainError, match="Q_long is empty"):
        pole_concentration(geo, led, dataclasses.replace(sel, Q_long=()))


# --------------------------------------------------------------------------
# final assembly


def test_assemble_rigid_zero(fixtures_dir):
    fam = normalize(load_family(fixtures_dir / "rigid.json"))
    led = global_deficit(fam)
    geo = SuspensionGeometry.from_family(fam)
    asm = assemble_main(geo, led)
    assert asm.final_dist == 0.0
    assert asm.ratio == 0.0
    assert asm.sign == 1.0
    assert asm.eta == final_exponent(2.0)


def test_assemble_flip_sign(fixtures_dir):
    fam = normalize(load_family(fixtures_dir / "flip_n2.json"))
    geo = SuspensionGeometry.from_family(fam)
    asm = assemble_main(geo, global_deficit(fam))
    assert asm.final_dist == 0.0
    assert asm.sign == -1.0


def test_assemble_shortray(fixtures_dir):
    run = localize(load_family(fixtures_dir / "shortray_n2.json"))
    led, asm = run.ledger, run.assembly
    assert math.isclose(asm.final_dist, SHORTRAY_FINAL, rel_tol=1e-9)
    assert asm.final_dist == math.sqrt(asm.final_dist_sq)  # the direction assemble_main computes
    assert asm.delta == led.delta
    assert math.isclose(asm.ratio, asm.final_dist / led.delta ** asm.eta,
                        rel_tol=1e-12)
    assert asm.sign == 1.0


# --------------------------------------------------------------------------
# exponents and sweep smoke


def test_default_exponents():
    assert default_beta(2.0) == 0.6
    assert default_gamma(2.0) == 0.2
    assert final_exponent(2.0) == 0.05
    assert math.isclose(default_beta(3.0), 9.0 / 14.0, rel_tol=1e-15)
    assert math.isclose(final_exponent(3.0), 1.0 / 28.0, rel_tol=1e-15)
    assert 0.0 < default_gamma(3.0) < default_beta(3.0) < 1.0


def test_sweep_fixture_full_pipeline(fixtures_dir):
    run = localize(load_family(fixtures_dir / "sweep_n2_k0.json"))
    fam, led, sel, asm = run.family, run.ledger, run.selection, run.assembly
    assert 0.0 < led.delta < 0.5
    assert sel.Q_long == tuple(range(len(fam.rays)))
    # localization identity: the global deficit pays for the per-ray ones
    paid = math.fsum(
        fam.rays[i].weight * led.delta_q[i] * led.c[i] ** 2
        for i in sel.Q_long
    )
    assert led.delta >= paid - 1e-10
    assert np.all(led.delta_q[np.asarray(sel.Q_long)] >= -1e-6)
    assert not run.variance.flagged
    assert not run.mass.flagged
    assert not run.pole.flagged
    assert asm.final_dist > 0.0
    assert np.isfinite(asm.ratio)


def test_sweep_fixture_deficits_nonnegative(fixtures_dir):
    for name in ("sweep_n2_k2.json", "sweep_n3_k4.json"):
        fam = normalize(load_family(fixtures_dir / name))
        led = global_deficit(fam)
        pos = led.c > 0
        assert np.all(led.delta_q[pos] >= -1e-6)
