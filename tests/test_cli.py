"""Command-line interface: parsers, subcommands, exit codes, determinism."""

from __future__ import annotations

import gc
import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

from steklov import cli, geometry, specfun, spectra
from steklov.geometry import ConeDomain, CylinderDomain, PolygonalDomain


# ---------------------------------------------------------------------------
# parsers
# ---------------------------------------------------------------------------

def test_num_parses_pi_literals():
    assert cli._num("1.5") == 1.5
    assert cli._num("pi") == pytest.approx(math.pi)
    assert cli._num("pi/4") == pytest.approx(math.pi / 4)
    assert cli._num("2pi") == pytest.approx(2 * math.pi)
    assert cli._num("3pi/2") == pytest.approx(1.5 * math.pi)
    assert cli._num("-0.5") == -0.5
    with pytest.raises(ValueError):
        cli._num("pie")
    with pytest.raises(ValueError):
        cli._num("")


def test_parse_grid_linear():
    g = cli.parse_grid("0:10:2.5")
    assert g == pytest.approx([0.0, 2.5, 5.0, 7.5, 10.0])
    assert cli.parse_grid("1:2:1") == pytest.approx([1.0, 2.0])


def test_parse_grid_log():
    g = cli.parse_grid("log5(0.1,1000)")
    assert g == pytest.approx(np.geomspace(0.1, 1000, 5))
    with pytest.raises(ValueError):
        cli.parse_grid("log1(1,10)")
    with pytest.raises(ValueError):
        cli.parse_grid("1:2")
    with pytest.raises(ValueError):
        cli.parse_grid("5:1:1")


def test_parse_preset_shapes():
    r = cli.parse_preset("rectangle:pi,1")
    assert geometry.free_length(r) == pytest.approx(math.pi)
    t = cli.parse_preset("isoceles-triangle:2,pi/4")
    assert geometry.depth(t) == pytest.approx(1.0)
    z = cli.parse_preset("trapezoid:2,pi/3,0.5")
    assert isinstance(z, PolygonalDomain)
    c2 = cli.parse_preset("cylinder:2,pi,1")
    assert isinstance(c2, CylinderDomain) and c2.n == 2
    c3 = cli.parse_preset("cylinder:3,1,2,0.5")
    assert c3.n == 3 and geometry.free_area(c3) == pytest.approx(2.0)
    k = cli.parse_preset("cone:pi/4,1")
    assert isinstance(k, ConeDomain)
    with pytest.raises(ValueError):
        cli.parse_preset("rectangle:1")
    with pytest.raises(ValueError):
        cli.parse_preset("hexagon:1,2")
    with pytest.raises(ValueError):
        cli.parse_preset("cylinder:4,1,1,1,1")


def test_load_domain_json(tmp_path):
    poly = tmp_path / "poly.json"
    poly.write_text(json.dumps({
        "vertices": [[0, 0], [0, -1], [2, -1], [2, 0]], "free_edges": [3]}))
    d = cli.load_domain(poly)
    assert geometry.free_length(d) == pytest.approx(2.0)

    cyl = tmp_path / "cyl.json"
    cyl.write_text(json.dumps({"cylinder": {"n": 3, "base": [1.0, 2.0], "h": 0.5}}))
    c = cli.load_domain(cyl)
    assert c.n == 3 and c.depth == 0.5

    cyl2 = tmp_path / "cyl2.json"
    cyl2.write_text(json.dumps({"cylinder": {"n": 2, "base": 3.0, "h": 1.0}}))
    assert geometry.free_area(cli.load_domain(cyl2)) == pytest.approx(3.0)

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"circle": 1}))
    with pytest.raises(ValueError):
        cli.load_domain(bad)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def test_spectrum_command_exact(capsys):
    rc = cli.main(["spectrum", "--preset", "rectangle:pi,1",
                   "--problem", "sn", "--count", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert "index,value" in lines
    assert lines[-2].startswith("2,0.7615941559557")
    assert lines[-3] == "1,0"


def test_spectrum_command_fem(tmp_path):
    out = tmp_path / "fem.csv"
    rc = cli.main(["spectrum", "--preset", "isoceles-triangle:2,pi/4",
                   "--problem", "sn", "--count", "5", "--fem-h", "0.2",
                   "--out", str(out)])
    assert rc == 0
    s = spectra.load_spectrum(out)
    assert s.source.startswith("fem:")
    assert len(s) == 5


def test_spectrum_needs_fem_for_irregular_polygon(capsys):
    rc = cli.main(["spectrum", "--preset", "isoceles-triangle:2,pi/4",
                   "--problem", "sn", "--count", "5"])
    assert rc == 2
    assert "--fem-h" in capsys.readouterr().err


def test_spectrum_cone_is_an_input_error(capsys):
    assert cli.main(["spectrum", "--preset", "cone:pi/4,1", "--problem", "sn",
                     "--count", "3"]) == 2


def test_riesz_command_roundtrip(tmp_path):
    spec = tmp_path / "s.csv"
    assert cli.main(["spectrum", "--preset", "rectangle:pi,1", "--problem",
                     "sn", "--count", "500", "--out", str(spec)]) == 0
    curve = tmp_path / "c.csv"
    assert cli.main(["riesz", "--spectrum", str(spec), "--gamma", "1",
                     "--grid", "0:50:5", "--out", str(curve)]) == 0
    from steklov import riesz as rz
    back = rz.load_curve(curve)
    s = spectra.load_spectrum(spec)
    assert back.values == pytest.approx(rz.riesz_mean_grid(s, 1.0, back.grid))


def test_riesz_from_preset_without_file(capsys):
    rc = cli.main(["riesz", "--preset", "rectangle:pi,1", "--problem", "sn",
                   "--count", "200", "--gamma", "1", "--grid", "0:20:10"])
    assert rc == 0
    assert "z,value" in capsys.readouterr().out


def test_verify_exit_codes(tmp_path, capsys):
    spec = tmp_path / "sd.csv"
    cli.main(["spectrum", "--preset", "rectangle:pi,1", "--problem", "sd",
              "--count", "2000", "--out", str(spec)])

    # 0: bound holds
    assert cli.main(["verify", "--spectrum", str(spec), "--bound", "sd-john2d",
                     "--grid", "log40(0.5,100)"]) == 0
    capsys.readouterr()

    # 1: violated, on a deliberately corrupted spectrum
    s = spectra.load_spectrum(spec)
    bad = spectra.Spectrum(problem="SD", values=s.values * 0.8,
                           source="corrupt", meta=dict(s.meta))
    badpath = tmp_path / "bad.csv"
    spectra.save_spectrum(bad, badpath)
    assert cli.main(["verify", "--spectrum", str(badpath), "--bound",
                     "sd-john2d", "--grid", "log40(1,100)"]) == 1
    capsys.readouterr()

    # 2: unknown bound id
    assert cli.main(["verify", "--spectrum", str(spec), "--bound", "nope",
                     "--grid", "1:2:1"]) == 2
    capsys.readouterr()

    # 3: grid beyond the validity ceiling
    assert cli.main(["verify", "--spectrum", str(spec), "--bound", "sd-john2d",
                     "--grid", "log10(1,5000)"]) == 3
    capsys.readouterr()

    # 4: hypothesis flag not confirmed (john flag stripped from metadata)
    meta = {k: v for k, v in s.meta.items() if k != "john"}
    flagged = spectra.Spectrum(problem="SD", values=s.values, source="exact",
                               meta=meta)
    fpath = tmp_path / "flagged.csv"
    spectra.save_spectrum(flagged, fpath)
    assert cli.main(["verify", "--spectrum", str(fpath), "--bound",
                     "sd-john2d", "--grid", "log10(1,100)"]) == 4
    capsys.readouterr()


def test_verify_rejects_a_nan_tolerance(tmp_path, capsys):
    spec = tmp_path / "sd.csv"
    cli.main(["spectrum", "--preset", "rectangle:pi,1", "--problem", "sd",
              "--count", "200", "--out", str(spec)])
    argv = ["verify", "--spectrum", str(spec), "--bound", "sd-john2d",
            "--grid", "log10(1,100)"]
    assert cli.main(argv) == 0
    capsys.readouterr()
    for tol in ("nan", "-1"):
        assert cli.main(argv + ["--tolerance", tol]) == 2
        assert "tolerance must be a finite real >= 0" in capsys.readouterr().err


def test_verify_with_domain_and_errors(tmp_path, capsys):
    spec = tmp_path / "sn.csv"
    cli.main(["spectrum", "--preset", "rectangle:pi,1", "--problem", "sn",
              "--count", "300", "--out", str(spec)])
    errfile = tmp_path / "errs.txt"
    np.savetxt(errfile, np.full(300, 1e-6))
    rep = tmp_path / "rep.json"
    rc = cli.main(["verify", "--spectrum", str(spec), "--bound", "main",
                   "--preset", "rectangle:pi,1", "--grid", "log20(0.5,100)",
                   "--errors", str(errfile), "--out", str(rep)])
    assert rc == 0
    data = json.loads(rep.read_text())
    assert data["status"] == "holds"
    assert data["params"]["gamma"] == 1.0


def test_verify_lifted_bound_matches_quadrature_oracle(tmp_path):
    # the Weyl term plus the pure-relative QAWS oracle of the lifted wall term
    from test_bounds import polygon_lift_oracle
    spec = tmp_path / "sn.csv"
    cli.main(["spectrum", "--preset", "rectangle:pi,1", "--problem", "sn",
              "--count", "400", "--out", str(spec)])
    rep = tmp_path / "rep.json"
    rc = cli.main(["verify", "--spectrum", str(spec), "--bound", "main",
                   "--gamma", "1.5", "--preset", "trapezoid:pi,2pi/3,1",
                   "--grid", "log6(0.5,60)", "--out", str(rep)])
    assert rc == 0
    data = json.loads(rep.read_text())
    assert data["status"] == "holds"
    g, trap = 1.5, geometry.trapezoid_domain(math.pi, 2 * math.pi / 3, 1.0)
    weyl = specfun.weyl_constant(2, g) * geometry.free_area(trap)
    want = [weyl * z ** (g + 1.0) + polygon_lift_oracle(trap, g, z)[0]
            for z in data["axis"]]
    assert data["bound"] == pytest.approx(want, rel=1e-10, abs=0)


def test_lifted_verify_does_not_import_scipy_integrate(tmp_path):
    # nor scipy.sparse: only the finite-element solver needs it, and an exact
    # spectrum and verify at any gamma leave steklov.fem unloaded
    spec = tmp_path / "sn.csv"
    code = ("import sys, steklov.cli\n"
            "rc = steklov.cli.main(['spectrum', '--preset', 'rectangle:pi,1', "
            f"'--problem', 'sn', '--count', '300', '--out', {str(spec)!r}])\n"
            "assert rc == 0, rc\n"
            "for gamma in ('1', '2.5'):\n"
            f"    rc = steklov.cli.main(['verify', '--spectrum', {str(spec)!r}, "
            "'--bound', 'main', '--gamma', gamma, '--preset', 'trapezoid:pi,2pi/3,1', "
            f"'--grid', 'log20(0.1,50)', '--out', {str(tmp_path / 'rep.json')!r}])\n"
            "    assert rc == 0, rc\n"
            "assert 'scipy.integrate' not in sys.modules\n"
            "assert 'scipy.sparse' not in sys.modules\n")
    subprocess.run([sys.executable, "-c", code], check=True)


def test_asym_command(tmp_path, capsys):
    spec = tmp_path / "s.csv"
    cli.main(["spectrum", "--preset", "rectangle:pi,1", "--problem", "sn",
              "--count", "4000", "--out", str(spec)])
    rc = cli.main(["asym", "--spectrum", str(spec), "--gamma", "1",
                   "--window", "100,1000"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["coefficient"] == pytest.approx(0.5, rel=0.02)
    assert data["prediction"] == 0.5


def test_asym_out_file_is_closed(tmp_path, capsys):
    spec, out = tmp_path / "s.csv", tmp_path / "fit.json"
    cli.main(["spectrum", "--preset", "rectangle:pi,1", "--problem", "sn",
              "--count", "2000", "--out", str(spec)])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        rc = cli.main(["asym", "--spectrum", str(spec), "--gamma", "1",
                       "--window", "100,1000", "--out", str(out)])
        gc.collect()
    assert rc == 0
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
    assert json.loads(out.read_text())["prediction"] == 0.5


def test_asym_rejects_bad_window(tmp_path, capsys):
    spec = tmp_path / "s.csv"
    cli.main(["spectrum", "--preset", "rectangle:pi,1", "--problem", "sn",
              "--count", "100", "--out", str(spec)])
    assert cli.main(["asym", "--spectrum", str(spec), "--gamma", "1",
                     "--window", "100"]) == 2


def test_missing_file_is_input_error(capsys):
    assert cli.main(["verify", "--spectrum", "/nonexistent.csv",
                     "--bound", "john2d", "--grid", "1:2:1"]) == 2


def test_cli_runs_are_byte_identical(tmp_path):
    spec = tmp_path / "s.csv"
    cli.main(["spectrum", "--preset", "rectangle:pi,1", "--problem", "sd",
              "--count", "800", "--out", str(spec)])
    cmd = [sys.executable, "-m", "steklov", "verify", "--spectrum", str(spec),
           "--bound", "sd-upper", "--grid", "log30(0.5,300)"]
    first = subprocess.run(cmd, capture_output=True, check=True).stdout
    second = subprocess.run(cmd, capture_output=True, check=True).stdout
    assert first == second
    assert first  # nonempty
