"""Bitwise pins of the static excursion kernel's output.

Each case runs :func:`simulate_find_times_batch` over several worlds of one
placement and :func:`simulate_find_times` on the first of them, and
compares the sha256 of the raw float64 results with a committed digest.
The golden statistical tables (``tests/golden/``) compare means within
several standard errors, so they cannot see a one-ulp drift in a single
find time; these digests can.  A kernel rewrite that keeps results
bitwise identical leaves every digest unchanged.

The cases cover every leg of an excursion and every branch of the kernel:

* ``axis`` worlds (``ty == 0``) are hit on the outbound x-leg;
* ``corner`` worlds (``tx == 0``) are hit on the return y-leg;
* ``offaxis`` and ``random`` worlds are hit only by exact coordinate
  crossings and the spiral;
* ``harmonic`` draws variable budgets and, at ``delta = 0.1``, start nodes
  beyond the int64-safe spiral offset;
* each scenario knob, ``start_delays`` and a ``horizon`` take their own
  branch of the phase loop.

Run this module as a script to print the digests of the current code.
"""

import hashlib

import numpy as np
import pytest

from repro.algorithms import (
    HarmonicSearch,
    NonUniformSearch,
    RestartingHarmonicSearch,
    RhoApproxSearch,
    UniformSearch,
)
from repro.scenarios import ScenarioSpec
from repro.sim.events import simulate_find_times, simulate_find_times_batch
from repro.sim.world import place_treasure

DISTANCES = (3, 8, 17, 40)

ALGORITHMS = {
    "nonuniform": lambda: (NonUniformSearch(k=4), 4, {}),
    "uniform": lambda: (UniformSearch(0.5), 3, {}),
    "harmonic": lambda: (HarmonicSearch(0.1), 16, {}),
    "restarting_harmonic": lambda: (
        RestartingHarmonicSearch(0.5), 4, {"horizon": 20_000.0}
    ),
    "rho": lambda: (RhoApproxSearch(k_a=5, rho=2.0), 4, {}),
}

SCENARIOS = {
    "detection": {"scenario": ScenarioSpec(detection_prob=0.6)},
    "crash": {"scenario": ScenarioSpec(crash_hazard=0.002)},
    "speed": {"scenario": ScenarioSpec(speed_spread=0.5)},
    "stagger_detection": {
        "scenario": ScenarioSpec(start_stagger=3.0, detection_prob=0.8)
    },
    "start_delays": {"start_delays": np.array([0.0, 5.0, 11.5, 40.0])},
    "horizon": {"horizon": 150.0},
}


def _cases():
    for name in ALGORITHMS:
        for placement in ("axis", "corner", "offaxis", "random"):
            yield f"{name}-{placement}", name, placement, {}
    for scn, kwargs in SCENARIOS.items():
        for placement in ("axis", "corner", "offaxis"):
            yield f"nonuniform-{placement}-{scn}", "nonuniform", placement, kwargs


CASES = {case_id: rest for case_id, *rest in _cases()}


def _digest(times: np.ndarray) -> str:
    raw = np.ascontiguousarray(times, dtype="<f8").tobytes()
    return hashlib.sha256(raw).hexdigest()[:32]


def case_digests(case_id: str):
    """``(batch, scalar)`` digests of one case under the current kernel."""
    name, placement, kwargs = CASES[case_id]
    algorithm, k, base = ALGORITHMS[name]()
    options = {**base, **kwargs}
    worlds = [place_treasure(d, placement, seed=d) for d in DISTANCES]
    batch = simulate_find_times_batch(algorithm, worlds, k, 40, seed=1, **options)
    scalar = simulate_find_times(algorithm, worlds[0], k, 40, seed=1, **options)
    return _digest(batch), _digest(scalar)


#: case id -> (batch digest, scalar digest)
DIGESTS = {
    "nonuniform-axis": (
        "71213d7f933b05ef8b1b1d0fe2525004",
        "bd9f6038a0d7f0900d44b3d96d3da71e",
    ),
    "nonuniform-corner": (
        "91c0aacf0d93a51643c229c7d2836aee",
        "66a919560d1dcc7044532e3116a5bb2d",
    ),
    "nonuniform-offaxis": (
        "8c85830bd99b909f92a5c94172167eff",
        "0490a9951eb3cb969ce55ea359b9976e",
    ),
    "nonuniform-random": (
        "687e59986de7de287d0d2aae0ae288f5",
        "ac3b2df9ef6818fc5d6ceeaf3e3b8977",
    ),
    "uniform-axis": (
        "93865b22959c7699cdede686c6753650",
        "0b799c15b27ff71d54f3d7768088b96b",
    ),
    "uniform-corner": (
        "0d113b7e222bf0006d3580d89413b5ae",
        "5934a48def7bea61da6574ad16f2843d",
    ),
    "uniform-offaxis": (
        "5e241c18c507eb15d97b116b121cb7b7",
        "ee03fa0947f3b00897854fc1fae5d448",
    ),
    "uniform-random": (
        "02b340fe513d4f92fa8a7a7b32510eb6",
        "ea36fa73f1c0fa6d45dbdb39a047940b",
    ),
    "harmonic-axis": (
        "cca9981ddfec6e9efdbe5c44c7c56c17",
        "3ed69aad394abba71c6d274043c33a14",
    ),
    "harmonic-corner": (
        "98a34d2176c441f504260d83f140b72c",
        "14feb1b828f3f3bf283dff33098d2ee6",
    ),
    "harmonic-offaxis": (
        "cdbf2682c85d0bffbaa2bb5ef68a0a21",
        "23244c368f2c4ff0a79edca32b16eb27",
    ),
    "harmonic-random": (
        "15c2f83296088dfb28b80908834d5e17",
        "cfd2223e8dc6a6af823de3f0c86c59ce",
    ),
    "restarting_harmonic-axis": (
        "4b89b18f2e4fe4eb382bc027ad8bbdd9",
        "c01f04c3460e4fb466badba86a9981ed",
    ),
    "restarting_harmonic-corner": (
        "c5c85330a2edec2d41cca0292b116fbb",
        "2bf8fdc95fc78af926552932b0a0dc97",
    ),
    "restarting_harmonic-offaxis": (
        "672903ac909aaf7f2861c39a628c0729",
        "3c851e560db6f363f0893a964c70c56f",
    ),
    "restarting_harmonic-random": (
        "4408fdd8d531033450e2811e5de849f8",
        "ff78e0524f650f8b4c826914e016d516",
    ),
    "rho-axis": (
        "e7969a26bfba8245e49262d99304f8f7",
        "edeadcfa49efe813d9f68bc355416c7d",
    ),
    "rho-corner": (
        "c23b409e29cb7aa9ecfe9ecac869e394",
        "8bdef945300c897932da25d986a9e32a",
    ),
    "rho-offaxis": (
        "bb7340dc9f85d62fcc872ea9ab635ded",
        "788daa2851c6b09b04526cde49bb9a5b",
    ),
    "rho-random": (
        "e3903cc707dd0ca7198b2b42f5974462",
        "9c52b28969ae0604aed13697c17e9279",
    ),
    "nonuniform-axis-detection": (
        "e1c716e7398c59e5a5b7a1cdb8de17d0",
        "ca2a994a94de61b2509c0404d11c7125",
    ),
    "nonuniform-corner-detection": (
        "54198fde5a06c45001c94fcc4e8cdaf4",
        "f6acdbb1461fd5d0118997f555fc7fb1",
    ),
    "nonuniform-offaxis-detection": (
        "849391f51ddee91ce9f25bb0abd19beb",
        "e3e4e9f011a078e4fabf14c410d1c24c",
    ),
    "nonuniform-axis-crash": (
        "4b5c44d01cd31dc4411ce047920ffab3",
        "98874ff1d8f6e25024f0e10c2b60b263",
    ),
    "nonuniform-corner-crash": (
        "f162b2a03ccd88892d6f168e1168428d",
        "20208be604d17c8c2dc31eec0fcd0709",
    ),
    "nonuniform-offaxis-crash": (
        "9cc30d3e8625cd0e7d352b5334e28d14",
        "8dba3a6a103c664397e637a0f54aa06f",
    ),
    "nonuniform-axis-speed": (
        "d9652cdc47042d08dd099cda1da9a3fa",
        "2bc50f96c677c68f9e9afad26ab9ef67",
    ),
    "nonuniform-corner-speed": (
        "635fc7e9b86b6014b1cf973b1e607ab3",
        "ab3ce4737b590cca52f78ee8cb5ce846",
    ),
    "nonuniform-offaxis-speed": (
        "91668a3c7164df0f219b14888f0b64ea",
        "6e5cb3f4c584727892387efaf90a41c5",
    ),
    "nonuniform-axis-stagger_detection": (
        "8998d753cd0b1aa8132ae3867d680c84",
        "c0e46e8d662150fae004d282470a41ee",
    ),
    "nonuniform-corner-stagger_detection": (
        "2fca721501a3670c9cfc59dee31337d8",
        "bedf89c6ab94029073b09e89d01fe95a",
    ),
    "nonuniform-offaxis-stagger_detection": (
        "5a6584e6317714ff5605e08841c02d65",
        "4b97d1d732b49a4dd566c3a726358586",
    ),
    "nonuniform-axis-start_delays": (
        "4a21dfe8ee03451a4040edb1b74771af",
        "eecb29a33d69c95545c3a76d2c1e8662",
    ),
    "nonuniform-corner-start_delays": (
        "349df23817f18f71ca5355de5b4c22af",
        "759deee33ff3464f978920e030029691",
    ),
    "nonuniform-offaxis-start_delays": (
        "5b66074f0a024d6b2556c04083751cbb",
        "ad06ba1ca35cb4f60461a9c250df6e1a",
    ),
    "nonuniform-axis-horizon": (
        "e72c7c1c4be336d1af6e276509b78115",
        "bd9f6038a0d7f0900d44b3d96d3da71e",
    ),
    "nonuniform-corner-horizon": (
        "69019aff37deb1664e0041d93c64868f",
        "a9e31709ec58ace9d10f3e8834f65681",
    ),
    "nonuniform-offaxis-horizon": (
        "f6cd4d67269580d23d0a12ace0c4b5e7",
        "0490a9951eb3cb969ce55ea359b9976e",
    ),
}


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_kernel_output_is_pinned(case_id):
    assert case_digests(case_id) == DIGESTS[case_id]


def test_every_case_is_pinned():
    assert sorted(DIGESTS) == sorted(CASES)


if __name__ == "__main__":
    for case_id in CASES:
        batch, scalar = case_digests(case_id)
        print(f'    "{case_id}": (\n        "{batch}",\n        "{scalar}",\n    ),')
