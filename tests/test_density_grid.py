"""The grid pass of ``spectra._density_l1`` against the single-shift kernel
it replaced.

``_scalar_density_l1`` below is that kernel, frozen: one shift per call, with
the merge, the per-set suffix log-sum-exps and the totals redone each time.
The grid pass promises every row the same float operations in the same
order, so every comparison here is exact (``==``), with no tolerance.
"""

import csv
import io as stdio
import math
import tracemalloc

import numpy as np
import pytest

from entlab import spectra
from entlab.cli import dispatch
from entlab.embezzle import _binomial_avatar, family_kappa_profile
from entlab.spectra import (
    atomic_measure,
    flow_act,
    flow_deviation,
    hs_distance,
    kappa_profile,
    spectral_state,
    state_spectrum,
)


def _scalar_density_l1(u1, w1, u2, w2, shift=0.0):
    """The single-shift kernel, as it was before the grid pass."""
    order = np.argsort(np.concatenate((u1, u2 + shift)), kind="stable")
    in2 = order >= len(u1)
    frame1, frame2 = (np.concatenate(f)[order] for f in ((u1, u2 + shift), (u1 - shift, u2)))

    def part(u, w, pos, mine):
        suffix = np.logaddexp.accumulate((np.log(w) - u)[::-1])[::-1]
        return np.exp(pos + np.append(suffix, -np.inf)[np.cumsum(mine) - mine])

    gaps = np.where(in2[1:] & in2[:-1], np.diff(frame2), np.diff(frame1))
    widths = -np.expm1(-np.concatenate(([np.inf], gaps)))
    terms = widths * np.abs(part(u1, w1, frame1, ~in2) - part(u2, w2, frame2, in2))
    value, total1, total2 = (math.fsum(np.sort(x)[::-1]) for x in (terms, w1, w2))
    return min(value, total1 + total2)


def _family_frame(lam, m):
    """The log-positions and masses ``family_kappa_profile`` works on."""
    k, masses = _binomial_avatar(lam, m)
    return ((k - k[np.argmax(masses)]) * math.log(lam))[::-1], masses[::-1]


def _scalar_profile(u, w, grid):
    return [_scalar_density_l1(u, w, u, w, t) for t in grid]


def _grid(period):
    """Through 0, +-1 and +-2 periods and +-1e300, with times in between."""
    return [float(t) for t in np.linspace(-2 * period, 2 * period, 11)] + [
        0.0, period, -period, 2 * period, -2 * period, 1e300, -1e300,
    ]


LAMBDAS = (0.25, 0.4, 0.5, 0.75, 0.9)


@pytest.mark.parametrize("m", [1, 5, 64, 256, 512, 1000, 2000, 10**4])
def test_family_profile_equals_the_scalar_kernel(m):
    """18 times at each of 5 lambdas: 720 profile values over the 8 ms."""
    for lam in LAMBDAS:
        u, w = _family_frame(lam, m)
        grid = _grid(-math.log(lam))
        assert family_kappa_profile(lam, m, grid) == _scalar_profile(u, w, grid)


@pytest.mark.parametrize("rank", [300, 600, 1000, 2000])
def test_flows_equal_the_scalar_kernel(rank):
    """Dirichlet spectra: each single-time flow and the profile over the same
    times give the scalar kernel's values."""
    s = state_spectrum(np.random.default_rng(rank).dirichlet(np.ones(rank)))
    hat = spectral_state(s)
    u = np.log(hat.atoms)
    grid = [math.log(2), -math.log(2), 0.0, 0.37, -5.0, 40.0, 1e300]
    want = _scalar_profile(u, hat.masses, grid)
    assert [flow_deviation(hat, t) for t in grid] == want
    assert kappa_profile(s, grid) == want


@pytest.mark.parametrize(("lam", "m"), [(0.5, 64), (0.9, 512), (0.5, 10**4)])
def test_grids_across_block_boundaries(lam, m):
    """Two full blocks of shifts and a partial third give the values one
    shift at a time gives."""
    u, w = _family_frame(lam, m)
    rows = max(1, spectra._BLOCK_ENTRIES // (2 * len(u)))
    grid = [float(t) for t in np.linspace(-3.0, 3.0, 2 * rows + 1)]
    assert family_kappa_profile(lam, m, grid) == _scalar_profile(u, w, grid)


def test_one_step_profile_equals_the_scalar_kernel(capsys):
    """``kappa profile --steps 1`` is the single time ``--t-min``."""
    u, w = _family_frame(0.5, 256)
    (want,) = _scalar_profile(u, w, [0.3])
    assert family_kappa_profile(0.5, 256, [0.3]) == [want]
    argv = ["kappa", "profile", "--family", "lambda", "--lambda", "0.5", "--m", "256",
            "--t-min", "0.3", "--t-max", "0.9", "--steps", "1"]
    capsys.readouterr()
    assert dispatch(argv) == 0
    (row,) = csv.DictReader(stdio.StringIO(capsys.readouterr().out))
    assert (float(row["t"]), float(row["deviation"])) == (0.3, want)


def test_empty_grid_gives_an_empty_profile():
    u, w = _family_frame(0.5, 64)
    assert spectra._density_l1(u, w, u, w, []) == []
    assert family_kappa_profile(0.5, 64, []) == []
    assert kappa_profile(state_spectrum([0.5, 0.3, 0.2]), []) == []


def test_two_set_hs_distance_equals_the_scalar_kernel():
    rng = np.random.default_rng(7)
    m1 = spectral_state(state_spectrum(rng.dirichlet(np.ones(50))))
    m2 = spectral_state(state_spectrum(rng.dirichlet(np.ones(70))))
    spread = atomic_measure([1e-300, 1e-200, 1.0], [0.25, 0.25, 0.5])
    pairs = [(m1, m2), (m2, m1), (m1, flow_act(m1, 0.9)), (spread, m1), (m1, m1)]
    for a, b in pairs:
        want = _scalar_density_l1(np.log(a.atoms), a.masses, np.log(b.atoms), b.masses)
        assert hs_distance(a, b) == want


# Peak traced allocation of one profile.  Built as one (steps x atoms) pass,
# the first profile below peaks near 160 MiB and the second near 54 MiB;
# in blocks of ``_BLOCK_ENTRIES`` merged entries both stay near 2-3 MiB.
PEAK_BOUND_BYTES = 5 * 2**20


@pytest.mark.parametrize(("lam", "m", "steps"), [(0.25, 64, 20_000), (0.5, 10**4, 121)])
def test_profile_memory_is_bounded_by_the_block(lam, m, steps):
    grid = [float(t) for t in np.linspace(0.0, 1.5 * -math.log(lam), steps)]
    tracemalloc.start()
    try:
        family_kappa_profile(lam, m, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < PEAK_BOUND_BYTES
