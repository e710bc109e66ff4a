"""scipy is a test-only dependency: the runtime never imports it.

Three runtime quantities once came from scipy — Zipf draws for the
harmonic and Lévy-flight radii, ``zeta(1+delta)`` for the harmonic
normaliser, and the normal quantile behind every confidence interval.
The in-repo replacements are pinned here against scipy as the reference:
identical random streams (values *and* generator state afterwards),
``zeta`` to 1e-12 relative, the quantile to 1e-14 relative.  A guard
test then drives every former call site in a fresh interpreter and
checks that scipy was never loaded.
"""

import itertools
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from scipy import special, stats

from repro.algorithms.baselines import LevyFlightSearch
from repro.algorithms.harmonic import PowerLawRingFamily, zeta
from repro.core.geometry import ring_cells_from_index_array
from repro.stats import normal_quantile

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

SEEDS = (0, 1, 7, 42, 2**31 - 1)


class TestZipfStreams:
    """``Generator.zipf`` is what ``stats.zipf.rvs`` calls underneath."""

    @pytest.mark.parametrize("delta", [0.1, 0.3, 0.5, 0.8, 1.5])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_power_law_ring_family_matches_scipy(self, delta, seed):
        ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        ux, uy, budgets = PowerLawRingFamily(delta).sample(ours, 257)

        radii = stats.zipf.rvs(1.0 + delta, size=257, random_state=ref)
        radii = np.minimum(np.asarray(radii, dtype=np.int64), 2**40)
        m = (ref.random(257) * 4 * radii).astype(np.int64)
        rx, ry = ring_cells_from_index_array(radii, m)
        rbudgets = np.minimum(
            np.ceil(radii.astype(np.float64) ** (2.0 + delta)), float(2**62)
        ).astype(np.int64)

        assert np.array_equal(ux, rx) and np.array_equal(uy, ry)
        assert np.array_equal(budgets, rbudgets) and budgets.dtype == np.int64
        assert ours.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("mu", [1.1, 1.5, 2.0, 2.5, 3.0])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_levy_flight_step_program_matches_scipy(self, mu, seed):
        ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        algo = LevyFlightSearch(mu=mu, max_segment=50)
        steps = list(itertools.islice(algo.step_program(ours), 400))

        directions = ((1, 0), (0, 1), (-1, 0), (0, -1))

        def reference():
            x, y = 0, 0
            while True:
                length = min(int(stats.zipf.rvs(mu, random_state=ref)), 50)
                dx, dy = directions[int(ref.integers(0, 4))]
                for _ in range(length):
                    x, y = x + dx, y + dy
                    yield x, y

        assert steps == list(itertools.islice(reference(), 400))
        assert ours.bit_generator.state == ref.bit_generator.state


class TestZeta:
    def test_matches_scipy_on_harmonic_range(self):
        s = np.concatenate([
            1.0 + np.logspace(-9, -2, 50),
            np.linspace(1.01, 5.0, 400),
        ])
        ours = np.array([zeta(float(v)) for v in s])
        ref = special.zeta(s)
        np.testing.assert_allclose(ours, ref, rtol=1e-12, atol=0)

    def test_known_values(self):
        assert zeta(2.0) == pytest.approx(np.pi**2 / 6, rel=1e-15)
        assert zeta(4.0) == pytest.approx(np.pi**4 / 90, rel=1e-15)

    @pytest.mark.parametrize("s", [1.0, 0.5, -2.0, float("nan")])
    def test_rejects_s_at_most_one(self, s):
        with pytest.raises(ValueError):
            zeta(s)


class TestNormalQuantile:
    P = np.concatenate([
        np.logspace(-10, np.log10(0.5), 400),
        1.0 - np.logspace(-10, np.log10(0.5), 400),
        np.linspace(0.001, 0.999, 400),
    ])

    def test_matches_scipy(self):
        ours = np.array([normal_quantile(float(p)) for p in self.P])
        np.testing.assert_allclose(ours, stats.norm.ppf(self.P), rtol=1e-14, atol=0)

    def test_antisymmetric_about_half(self):
        # Dyadic p keeps 1 - p exact, so antisymmetry can be exact too.
        for p in np.arange(1, 2**12) / 2**13:
            assert normal_quantile(1.0 - p) == -normal_quantile(p)
        assert normal_quantile(0.5) == 0.0

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.5, float("nan")])
    def test_rejects_p_outside_unit_interval(self, p):
        with pytest.raises(ValueError):
            normal_quantile(p)


def test_runtime_never_imports_scipy(tmp_path):
    """Every former scipy call site runs in a fresh interpreter; none loads it."""
    script = textwrap.dedent(
        """
        import itertools, sys
        import numpy as np
        import repro.cli
        from repro.algorithms.baselines import LevyFlightSearch
        from repro.analysis.theory import harmonic_alpha
        from repro.stats import BudgetPolicy, wilson_interval
        from repro.sweep import SweepSpec, run_sweep

        adaptive = SweepSpec(
            algorithm="nonuniform", distances=(8,), ks=(1, 4), trials=32,
            seed=3, budget=BudgetPolicy.target_rel_ci(
                0.2, min_trials=32, max_trials=64),
        )
        harmonic = SweepSpec(
            algorithm="harmonic", distances=(8,), ks=(16,), trials=32,
            seed=3, params={"delta": 0.5}, horizon=10_000,
        )
        for spec in (adaptive, harmonic):
            assert run_sweep(spec, cache=False).cells
        steps = LevyFlightSearch().step_program(np.random.default_rng(0))
        assert len(list(itertools.islice(steps, 100))) == 100
        assert wilson_interval(3, 10)[0] > 0
        assert harmonic_alpha(0.1, 0.5) > 0
        loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
        assert not loaded, loaded
        """
    )
    env = dict(os.environ, PYTHONPATH=SRC, REPRO_SWEEP_CACHE=str(tmp_path))
    env.pop("REPRO_FAULT_PLAN", None)
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
