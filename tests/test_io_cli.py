import argparse
import json
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy

import halfspace.cli as cli_mod
from halfspace.cli import (
    EXPERIMENTS,
    ExperimentConfig,
    build_parser,
    main,
    max_workers,
    run_experiment,
)
from halfspace.coefficients import identity_coefficients, perturbation_of_identity
from halfspace.grid import GridSpec
from halfspace.io import (
    CoefficientFormatError,
    load_coefficients,
    save_coefficient_fourier,
    save_coefficient_samples,
)


# ---------------------------------------------------------------------------
# coefficient file formats
# ---------------------------------------------------------------------------


def test_samples_roundtrip(tmp_path, g32, rng):
    A = perturbation_of_identity(g32, rng, 0.3)
    path = tmp_path / "coeff.bin"
    save_coefficient_samples(path, A)
    back = load_coefficients(path, g32)
    assert np.array_equal(back.values, A.values)


def test_samples_identity_file(tmp_path, g32):
    path = tmp_path / "ident.bin"
    save_coefficient_samples(path, identity_coefficients(g32))
    A = load_coefficients(path, g32)
    assert np.allclose(A.values, np.eye(2))


def test_samples_truncated_payload(tmp_path, g32, rng):
    A = perturbation_of_identity(g32, rng, 0.1)
    path = tmp_path / "coeff.bin"
    save_coefficient_samples(path, A)
    data = path.read_bytes()
    path.write_bytes(data[:-16])
    with pytest.raises(CoefficientFormatError, match="payload"):
        load_coefficients(path, g32)


def test_samples_grid_mismatch(tmp_path, g32):
    path = tmp_path / "coeff.bin"
    save_coefficient_samples(path, identity_coefficients(g32))
    other = GridSpec(dim=1, points=64)
    with pytest.raises(CoefficientFormatError, match="does not match"):
        load_coefficients(path, other)


def test_fourier_format_sampling(tmp_path, g32):
    # smooth perturbation: constant term plus one conjugate-symmetric mode
    E = np.array([[0.0, 1.0], [1.0, 0.0]])
    entries = {(0,): np.eye(2), (1,): 0.05 * E, (-1,): 0.05 * E}
    path = tmp_path / "coeff.json"
    save_coefficient_fourier(path, g32, entries)
    A = load_coefficients(path, g32)
    x = g32.coordinates()[0]
    expected = np.eye(2)[None, :, :] + 0.1 * np.cos(x)[:, None, None] * E[None, :, :]
    assert np.allclose(A.values, expected, atol=1e-13)


def test_fourier_bad_json_line_diagnostics(tmp_path, g32):
    path = tmp_path / "broken.json"
    path.write_text('{"format": "fourier",\n "n": 1,\n "m": 1,\n "entries": [}')
    with pytest.raises(CoefficientFormatError, match="line 4"):
        load_coefficients(path, g32)


@pytest.mark.parametrize(
    "content, message",
    [
        (b"halfspace-coefficients samples n=1=2 m=1 G=8\n", "samples header"),
        (b"[1, 2]", "format tag"),
        (b'{"format": "fourier", "n": 1, "m": 1}', "'entries'"),
        (b'{"format": "fourier", "n": 1, "m": 1, "entries": [{"re": [[1, 0], [0, 1]]}]}',
         "entry 0 needs keys 'k'"),
        (b"halfspace-coefficients samples n=1 m=1 G=8\n" + bytes(10), "payload"),
        (b'{"format": "fourier", "n": 1, "m": 1, "entries": [{"k": 1, "re": [[1]]}]}',
         "not 1 integers"),
        (b'{"format": "fourier", "n": 1, "m": 1, "entries": [{"k": ["a"], "re": [[1]]}]}',
         "not 1 integers"),
        (b'{"format": "fourier", "n": 1, "m": 1, "entries": [{"k": [1], "re": "x"}]}',
         "not numeric"),
    ],
    ids=["samples-header", "json-list", "no-entries", "entry-without-k",
         "odd-payload", "scalar-k", "string-k", "string-matrix"],
)
def test_malformed_coefficient_files(tmp_path, content, message):
    path = tmp_path / "coeff"
    path.write_bytes(content)
    with pytest.raises(CoefficientFormatError, match=message):
        load_coefficients(path, GridSpec(dim=1, points=8))


def test_fourier_wrong_matrix_shape(tmp_path, g32):
    path = tmp_path / "bad.json"
    doc = {"format": "fourier", "n": 1, "m": 1,
           "entries": [{"k": [1], "re": [[1.0]], "im": [[0.0]]}]}
    path.write_text(json.dumps(doc))
    with pytest.raises(CoefficientFormatError, match="shape"):
        load_coefficients(path, g32)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def test_config_roundtrip_lossless():
    cfg = ExperimentConfig(
        experiment="quadratic",
        grid_points=64,
        seed=99,
        coefficients={"source": "perturbation", "size": 0.12},
        ladder={"t_min": 0.001, "t_max": 10.0, "per_octave": 4},
    )
    doc = json.loads(json.dumps(cfg.to_dict()))
    assert ExperimentConfig.from_dict(doc) == cfg


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config keys"):
        ExperimentConfig.from_dict({"experiment": "quadratic", "bogus": 1})


def test_max_workers_env(monkeypatch):
    monkeypatch.setenv("HALFSPACE_THREADS", "3")
    assert max_workers() == 3
    monkeypatch.setenv("HALFSPACE_THREADS", "junk")
    assert max_workers() >= 1
    monkeypatch.delenv("HALFSPACE_THREADS")
    assert max_workers() >= 1


def test_max_workers_leave_cores_to_blas(monkeypatch):
    monkeypatch.delenv("HALFSPACE_THREADS", raising=False)
    cores = os.cpu_count() or 1
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    assert max_workers() == 1
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    assert max_workers() == min(8, cores)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", str(cores))
    assert max_workers() == 1
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "junk")
    assert max_workers() == 1


# ---------------------------------------------------------------------------
# experiment runs
# ---------------------------------------------------------------------------


def test_reproducible_records():
    cfg = ExperimentConfig(experiment="quadratic", grid_points=32, seed=5, probes=4)
    r1 = run_experiment(cfg)
    r2 = run_experiment(cfg)
    assert r1["records"] == r2["records"]
    assert r1["passed"]


def test_report_written_even_on_failure(tmp_path):
    out = tmp_path / "report.json"
    code = main(
        [
            "quadratic",
            "--grid",
            "32",
            "--seed",
            "1",
            "--tolerance-scale",
            "1e-12",
            "--out",
            str(out),
        ]
    )
    assert code == 1
    doc = json.loads(out.read_text())
    assert doc["passed"] is False
    assert any(not r["pass"] for r in doc["records"])


def test_main_pass_exit_zero(tmp_path):
    out = tmp_path / "report.json"
    code = main(["oracle", "one-d", "--grid", "32", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["passed"] is True
    assert doc["experiment"] == "oracle one-d"
    assert {"name", "value", "bound", "pass", "operation", "anchor"} <= set(
        doc["records"][0]
    )
    assert doc["environment"]["scipy"] == scipy.__version__


def test_main_refuses_one_d_oracle_in_two_dimensions(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["oracle", "one-d", "--dim", "2", "--grid", "8", "--out", str(out)])
    assert code == 2
    assert "configuration error" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(ValueError, match="dim=1"):
        ExperimentConfig(experiment="oracle", variant="one-d", grid_dim=2)


@pytest.mark.parametrize(
    "doc",
    [
        {"grid_points": 12},
        {"grid_dim": 3},
        {"coefficients": {"source": "bogus"}},
        {"variant": "bogus"},
        {"whitney": {"apertur": 2}},
        {"ladder": {"tmin": 0.5}},
        {"ladder": {"t_min": 0}},
        {"ladder": {"per_octave": 0}},
        {"coefficients": {"source": "file"}},
        {"coefficients": {"source": "inline", "values_im": 0.0}},
        {"probes": 0},
        {"probes": 2.5},
        {"probes": True},
        {"seed": -1},
        {"tolerance_scale": -1},
        {"tolerance_scale": 0},
        {"tolerance_scale": "1"},
        {"tolerance_scale": float("nan")},
        {"whitney": {"c0": float("nan")}},
        {"whitney": {"c1": float("inf")}},
        {"whitney": {"aperture": float("nan")}},
        {"system_size": 1.5},
        {"grid_dim": True},
        {"system_size": True},
        {"grid_points": 32.0},
        {"coefficients": "identity"},
        {"coefficients": {"source": "perturbation", "size": "big"}},
        {"coefficients": {"source": "block", "contrast": float("inf")}},
    ],
    ids=["grid-points", "grid-dim", "coefficient-source", "variant", "whitney-key",
         "ladder-key", "ladder-t-min", "ladder-per-octave-zero", "file-without-path",
         "inline-without-values",
         "probes-zero", "probes-float", "probes-bool", "seed-negative",
         "tolerance-negative", "tolerance-zero", "tolerance-string", "tolerance-nan",
         "whitney-c0-nan", "whitney-c1-infinity", "whitney-aperture-nan",
         "system-size-float", "grid-dim-bool", "system-size-bool", "grid-points-float",
         "coefficients-not-object", "perturbation-size-string", "block-contrast-infinity"],
)
def test_main_refuses_bad_config_before_any_work(tmp_path, capsys, monkeypatch, doc):
    def runner(*args):
        raise AssertionError("the runner ran")

    monkeypatch.setitem(EXPERIMENTS["nt-max"], None, runner)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    code = main(["nt-max", "--config", str(cfg_path), "--out", str(out)])
    assert code == 2
    assert "configuration error" in capsys.readouterr().err
    assert not out.exists()



def test_main_names_an_integer_for_float_grid_points(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"grid_points": 32.0}))
    assert main(["nt-max", "--config", str(cfg_path), "--out", str(tmp_path / "r.json")]) == 2
    assert "points must be an integer, got 32.0" in capsys.readouterr().err


@pytest.mark.parametrize("doc", [{"ladder": {"per_octave": 4}}, {"whitney": {"aperture": 2.0}}],
                         ids=["ladder", "whitney"])
def test_main_runs_partial_ladder_and_whitney(tmp_path, doc):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    assert main(["nt-max", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["config"] == {
        **ExperimentConfig("nt-max").to_dict(), **doc, "out": str(out)
    }


def test_missing_variant_is_the_first_listed():
    assert ExperimentConfig("bvp").variant == "regularity"
    assert run_experiment(ExperimentConfig("oracle"))["experiment"] == "oracle laplacian"
    assert ExperimentConfig("quadratic").variant is None


def test_main_config_file(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    out = tmp_path / "rep.json"
    cfg_path.write_text(
        json.dumps({"grid_points": 32, "seed": 3, "probes": 4, "out": str(out)})
    )
    code = main(["accretivity", "--config", str(cfg_path)])
    assert code == 0
    assert out.exists()


def test_main_bad_config(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"grid_points": }')
    with pytest.raises(SystemExit, match="line 1"):
        main(["accretivity", "--config", str(cfg_path)])


def test_parser_variants():
    parser = build_parser()
    args = parser.parse_args(["bvp", "neumann", "--grid", "16"])
    assert args.experiment == "bvp"
    assert args.variant == "neumann"
    with pytest.raises(SystemExit):
        parser.parse_args(["bvp", "bogus"])
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == list(EXPERIMENTS)
    for name, variants in EXPERIMENTS.items():
        choices = [a.choices for a in sub.choices[name]._actions if a.dest == "variant"]
        assert choices == ([] if None in variants else [tuple(variants)])


def test_console_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "halfspace.cli", "oracle", "one-d", "--grid", "32",
         "--out", str(tmp_path / "rep.json")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "[pass]" in proc.stdout


def test_sweep_perturbation_records(tmp_path):
    out = tmp_path / "rep.json"
    code = main(["sweep", "perturbation", "--grid", "32", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    names = [r["name"] for r in doc["records"]]
    assert any("eps_0.4" in n for n in names)


def test_sweep_perturbation_records_refusal():
    # -I is invertible but not accretive: every perturbation of it is refused
    values = -np.eye(2)[None].repeat(16, axis=0)
    cfg = ExperimentConfig("sweep", "perturbation", grid_points=16,
                           coefficients={"source": "inline", "values_re": values.tolist()})
    records = run_experiment(cfg)["records"]
    assert len(records) == 5
    for rec in records:
        assert rec["pass"] is False
        assert rec["value"] == float("inf")
        assert rec["operation"] == "solve_neumann: NotAccretiveError"


def test_sweep_perturbation_propagates_faults(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("library fault")

    monkeypatch.setattr(cli_mod.bvp_mod, "solve_neumann", broken)
    with pytest.raises(RuntimeError, match="library fault"):
        run_experiment(ExperimentConfig("sweep", "perturbation", grid_points=16))
