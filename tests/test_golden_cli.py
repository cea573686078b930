"""Golden CLI records: every experiment/variant pair at 1D G=32, seed 0.

Each configuration runs through run_experiment and must reproduce the
records stored in tests/golden/cli_1d_g32.json: names, operations,
anchors and pass flags equal; values and bounds within 1e-9 relative,
with an absolute floor of 1e-12.

Regenerate (only when a change of records is intended) with
    PYTHONPATH=src python tests/test_golden_cli.py
"""

import json
import math
import pathlib

import pytest

from halfspace.cli import EXPERIMENTS, ExperimentConfig, run_experiment

GOLDEN = pathlib.Path(__file__).parent / "golden" / "cli_1d_g32.json"

COEFFICIENTS = {
    "identity": {"source": "identity"},
    "perturbation": {"source": "perturbation", "size": 0.15},
}

CASES = [
    (coef, experiment, variant)
    for coef in COEFFICIENTS
    for experiment in EXPERIMENTS
    for variant in EXPERIMENTS[experiment]
]

REL_TOL = 1e-9
ABS_TOL = 1e-12


def _key(coef, experiment, variant) -> str:
    return " ".join(part for part in (coef, experiment, variant) if part)


def _records(coef, experiment, variant) -> list:
    cfg = ExperimentConfig(
        experiment=experiment,
        variant=variant,
        grid_dim=1,
        grid_points=32,
        seed=0,
        coefficients=dict(COEFFICIENTS[coef]),
    )
    return run_experiment(cfg)["records"]


def _close(a, b) -> bool:
    if a is None or b is None or a == b:
        return a == b
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= max(ABS_TOL, REL_TOL * max(abs(a), abs(b)))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case", CASES, ids=[_key(*c) for c in CASES])
def test_cli_records_match_golden(golden, case):
    expected = golden[_key(*case)]
    got = _records(*case)
    assert [r["name"] for r in got] == [r["name"] for r in expected]
    for g, e in zip(got, expected):
        for field in e:
            if field in ("value", "bound"):
                assert _close(g[field], e[field]), (e["name"], field, g[field], e[field])
            else:
                assert g[field] == e[field], (e["name"], field)


def test_golden_covers_every_pair(golden):
    assert len(CASES) == 34
    assert sorted(golden) == sorted(_key(*c) for c in CASES)


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    doc = {_key(*c): _records(*c) for c in CASES}
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(doc)} record lists to {GOLDEN}")
