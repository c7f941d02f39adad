"""The isoperimetric kernels evaluate each branch only on the elements that
take it, with the bits of the two-branch forms they replace.

The two-branch forms are kept below as references: each evaluated every
branch on every element and kept one with np.where.
"""
import math

import numpy as np
from hypothesis import given, settings, strategies as st
from scipy.special import betainc, betaincinv

from obatalab import isoperimetry as iso
from obatalab import measures
from obatalab.isoperimetry import ProfileQuery, profile
from obatalab.measures import _sinpow_series, omega, sinpow_cum


def _sinpow_cum_two_branch(N, x):
    x = np.asarray(x, dtype=float)
    w = omega(N)
    split = N / (N + 1.0)
    s2, c = np.sin(x) ** 2, np.cos(x)
    edge = 0.5 * w * betainc(N / 2.0, 0.5, np.minimum(s2, split))
    mid = 0.5 * w * (1.0 - np.sign(c) * betainc(0.5, N / 2.0, np.minimum(c * c, 1.0 - split)))
    out = np.where(s2 > split, mid, np.where(x <= np.pi / 2, edge, w - edge))
    small = x < 1e-5
    if np.any(small):
        xs = np.maximum(np.where(small, x, 0.0), 0.0)
        out = np.where(small, _sinpow_series(N, xs), out)
    tail = x > np.pi - 1e-5
    if np.any(tail):
        xs = np.maximum(np.where(tail, np.pi - x, 0.0), 0.0)
        out = np.where(tail, w - _sinpow_series(N, xs), out)
    return out if out.ndim else float(out)


def _sinpow_inv_two_branch(N, S):
    half = 0.5 * omega(N)
    near = np.clip(np.minimum(S, 2.0 * half - S), 0.0, half)
    c = np.sqrt(betaincinv(0.5, N / 2.0, np.minimum(np.abs(half - S) / half, 1.0)))
    s = np.sqrt(betaincinv(N / 2.0, 0.5, near / half))
    x = np.where(N * near < 1e-5 ** N, (N * near) ** (1.0 / N), np.arcsin(s))
    edge = np.where(S <= half, x, np.pi - x)
    return np.where(c * c < 1.0 / (N + 1.0), np.arccos(np.copysign(c, half - S)), edge)


def _integral_two_branch(N, b, x):
    b = np.asarray(b, dtype=float)
    Sb, Sb_far = _sinpow_cum_two_branch(N, np.stack([b, np.pi - b]))
    Sx, Sx_far = _sinpow_cum_two_branch(N, np.stack([x, np.pi - x]))
    diff = np.where(b + x <= np.pi, Sx - Sb, Sb_far - Sx_far)
    mid, half = 0.5 * (x + b), 0.5 * (x - b)
    nodes = mid[..., None] + half[..., None] * iso._GL_NODES
    gauss = half * (np.abs(np.sin(nodes)) ** (N - 1) @ iso._GL_WEIGHTS)
    return np.where(x - b <= 0.25 * np.minimum(b, np.pi - x), gauss, diff)


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@st.composite
def _points(draw):
    """(N, x): N in (1, 1e3] and points of [0, pi], with the poles, the
    edges of the 1e-5 series bands and the N/(N+1) branch switch."""
    N = draw(st.floats(1.0, 1e3, exclude_min=True))
    switch = math.asin(math.sqrt(N / (N + 1.0)))
    special = [0.0, math.pi, 1e-5, math.nextafter(1e-5, 0.0), 5e-6, math.pi - 1e-5,
               math.nextafter(math.pi - 1e-5, 4.0), math.pi - 5e-6, math.pi / 2,
               switch, math.nextafter(switch, 0.0), math.nextafter(switch, 4.0),
               math.pi - switch, switch + 1e-9, switch - 1e-9]
    xs = draw(st.lists(st.one_of(st.floats(0.0, math.pi), st.sampled_from(special)),
                       min_size=1, max_size=40))
    return N, np.array(xs)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_points())
def test_sinpow_cum_matches_two_branch_bits(case):
    N, x = case
    assert _same_bits(sinpow_cum(N, x), _sinpow_cum_two_branch(N, x))
    assert _same_bits(sinpow_cum(N, x.reshape(-1, 1)), _sinpow_cum_two_branch(N, x.reshape(-1, 1)))
    got, ref = sinpow_cum(N, float(x[0])), _sinpow_cum_two_branch(N, float(x[0]))
    assert type(got) is float and _same_bits(got, ref)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_points())
def test_sinpow_inv_matches_two_branch_bits(case):
    N, x = case
    S = sinpow_cum(N, x)
    assert _same_bits(iso._sinpow_inv(N, S), _sinpow_inv_two_branch(N, S))
    S0 = np.asarray(S[0])
    got = iso._sinpow_inv(N, S0)
    assert isinstance(got, np.ndarray) and got.ndim == 0
    assert _same_bits(got, _sinpow_inv_two_branch(N, S0))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_points(), st.data())
def test_window_integral_matches_two_branch_bits(case, data):
    N, x = case
    y = np.array(data.draw(st.lists(st.floats(0.0, math.pi), min_size=x.size, max_size=x.size)))
    b, x = np.minimum(x, y), np.maximum(x, y)
    Sb = sinpow_cum(N, np.stack([b, np.pi - b]))
    assert _same_bits(iso._integral(N, b, Sb, x), _integral_two_branch(N, b, x))
    # windows batched against several right ends, as _solve_R's Newton steps are
    xs = np.stack([x, 0.5 * (b + x)])
    assert _same_bits(iso._integral(N, b, Sb, xs), _integral_two_branch(N, b, xs))
    b0, x0 = b[0], np.asarray(x[0])
    Sb0 = sinpow_cum(N, np.stack([b0, np.pi - b0]))
    assert _same_bits(iso._integral(N, np.asarray(b0), Sb0, x0), _integral_two_branch(N, b0, x0))


def _count_elements(monkeypatch, module, name, seen):
    real = getattr(module, name)

    def counted(a, b, x):
        seen[name] = seen.get(name, 0) + np.size(x)
        return real(a, b, x)

    monkeypatch.setattr(module, name, counted)


def test_each_element_is_evaluated_on_one_branch(monkeypatch):
    seen = {}
    _count_elements(monkeypatch, measures, "betainc", seen)
    _count_elements(monkeypatch, iso, "betaincinv", seen)
    x = np.linspace(0.01, math.pi - 0.01, 101)  # outside the series bands
    S = sinpow_cum(3.0, x)
    assert seen == {"betainc": x.size}  # the two-branch form evaluated 2 * 101
    sinpow_cum(3.0, 1.0)
    assert seen == {"betainc": x.size + 1}
    iso._sinpow_inv(3.0, S)
    # one inversion of every element for the mid test, and one more only on
    # the elements off it (the two-branch form inverted 2 * 101)
    assert x.size < seen["betaincinv"] < 2 * x.size


class _CountedWeights(np.ndarray):
    """The Gauss-Legendre weights, counting the sums formed with them."""
    uses = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        type(self).uses += 1
        return getattr(ufunc, method)(*(np.asarray(a) for a in inputs), **kwargs)


def test_long_window_profiles_form_no_gauss_sum(monkeypatch):
    monkeypatch.setattr(iso, "_GL_WEIGHTS", iso._GL_WEIGHTS.view(_CountedWeights))
    for N in (2.0, 3.0):
        for D in (2.0, 2.5, 3.0):
            for v in (0.3, 0.5, 0.7):
                _CountedWeights.uses = 0
                profile(ProfileQuery(N, D, v))
                assert _CountedWeights.uses == 0, (N, D, v)
    # a small v puts R within a quarter of b's pole distance: that integral
    # is short and takes the sum; v = 0.95 is solved as its mirror 0.05
    for v in (0.01, 0.95):
        _CountedWeights.uses = 0
        profile(ProfileQuery(3.0, 2.0, v))
        assert _CountedWeights.uses > 0, v
