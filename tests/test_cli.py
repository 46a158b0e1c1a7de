"""Command-line interface: parsers, subcommands, exit codes, determinism."""

from __future__ import annotations

import gc
import json
import math
import shlex
import subprocess
import sys
import tracemalloc
import warnings

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steklov import cli, geometry, riesz, specfun, spectra
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


def test_num_refuses_what_is_not_a_finite_number():
    assert cli._num("1e+3") == 1000.0
    assert cli._num("2 pi / 4") == (2 * math.pi) / 4
    for token in ("pi/0", "1/0", "1e999", "1e308pi", "inf", "nan", "pipi",
                  "2pi3", "pi/", "/2", "-pi", "1/2/3"):
        with pytest.raises(ValueError, match="cannot parse number"):
            cli._num(token)


@settings(max_examples=300, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_num_reads_back_every_float_repr(x):
    assert cli._num(repr(x)) == x


@settings(max_examples=300, deadline=None)
@given(st.integers(-10**6, 10**6), st.integers(1, 10**6))
def test_num_pi_fractions_are_coefficient_times_pi_over_divisor(k, m):
    assert cli._num(f"{k}pi/{m}").hex() == ((k * math.pi) / m).hex()


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


@pytest.mark.parametrize("fem_h", [[], ["--fem-h", "0.1"]])
def test_spectrum_count_zero_says_the_same_on_both_paths(fem_h, capsys):
    preset = "isoceles-triangle:2,pi/4" if fem_h else "rectangle:pi,1"
    assert cli.main(["spectrum", "--preset", preset, "--problem", "sn",
                     "--count", "0", *fem_h]) == 2
    assert "count must be a positive integer, got 0" in capsys.readouterr().err


@pytest.mark.parametrize("preset, need", [
    ("isoceles-triangle:2,pi/4", "needs 998 4-splits"),
    ("rectangle:pi,1", "needs 3.142e+300 grid columns")])
def test_spectrum_tiny_fem_h_exits_2_with_one_error_line(preset, need, capsys,
                                                         monkeypatch):
    monkeypatch.setattr(specfun, "memory_limit", lambda: 8 * 10 ** 9)
    assert cli.main(["spectrum", "--preset", preset, "--problem", "sn",
                     "--count", "3", "--fem-h", "1e-300"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    assert err.startswith(f"error: target_h = 1e-300 {need}")
    assert "bytes this process may use" in err


def test_spectrum_needs_fem_for_irregular_polygon(capsys):
    rc = cli.main(["spectrum", "--preset", "isoceles-triangle:2,pi/4",
                   "--problem", "sn", "--count", "5"])
    assert rc == 2
    assert "--fem-h" in capsys.readouterr().err


def test_spectrum_fem_h_is_refused_for_cylinders(capsys):
    assert cli.main(["spectrum", "--preset", "cylinder:2,pi,1", "--problem", "sn",
                     "--count", "3", "--fem-h", "0.1"]) == 2
    assert "--fem-h applies to polygons only" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["riesz", "--gamma", "1", "--grid", "0:2:1"],
                                     ["asym", "--window", "1,2"]])
def test_spectrum_preset_and_domain_are_exclusive_sources(command, tmp_path,
                                                          capsys):
    spec, dom = tmp_path / "s.csv", tmp_path / "d.json"
    spectra.save_spectrum(spectra.rectangle_sn(math.pi, 1.0, 100), spec)
    dom.write_text(json.dumps({"cylinder": {"n": 2, "base": 3.0, "h": 1.0}}))
    for sources in (["--spectrum", str(spec), "--preset", "rectangle:pi,1"],
                    ["--spectrum", str(spec), "--domain", str(dom)], []):
        with pytest.raises(SystemExit) as exc:
            cli.main(command + sources)
        assert exc.value.code == 2
        assert "--spectrum" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["riesz", "--gamma", "1", "--grid", "0:2:1"],
                                     ["asym", "--window", "1,2"]])
@pytest.mark.parametrize("option", [["--problem", "sd"], ["--problem", "sn"],
                                    ["--count", "5"], ["--fem-h", "0.1"]])
def test_build_options_are_refused_beside_a_spectrum_file(command, option,
                                                          tmp_path, capsys):
    # they say how to build a spectrum from a domain; a file is already built
    spec = tmp_path / "s.csv"
    spectra.save_spectrum(spectra.rectangle_sn(math.pi, 1.0, 100), spec)
    assert cli.main(command + ["--spectrum", str(spec), *option]) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    assert err.startswith("error: ") and option[0] in err


@pytest.mark.parametrize("command", [["riesz", "--gamma", "1", "--grid", "0:20:5"],
                                     ["asym", "--window", "5,30"]])
def test_domain_builds_default_to_100_sn_eigenvalues(command, capsys):
    source = ["--preset", "rectangle:pi,1"]
    assert cli.main(command + source) == 0
    implied = capsys.readouterr().out
    assert cli.main(command + source + ["--problem", "sn", "--count", "100"]) == 0
    assert capsys.readouterr().out == implied
    assert cli.main(command + source + ["--problem", "sd", "--count", "50"]) == 0
    assert capsys.readouterr().out != implied


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


COUNT3 = ["--problem", "sn", "--count", "3"]
SQUARE = [[0, 0], [0, -1], [2, -1], [2, 0]]


# (argv, content of {d.json}); {name} in argv is the file tmp_path / name
@pytest.mark.parametrize("argv, domain", [
    (["spectrum", "--preset", "rectangle:pi/0,1", *COUNT3], None),
    (["verify", "--spectrum", "{s.csv}", "--bound", "john2d",
      "--grid", "0:pi/0:1"], None),
    (["asym", "--spectrum", "{s.csv}", "--window", "1,pi/0"], None),
    (["spectrum", "--preset", "cylinder:2.7,1,1", *COUNT3], None),
    (["spectrum", "--preset", "cylinder:2,pi,1", *COUNT3, "--fem-h", "0.1"], None),
    (["spectrum", "--domain", "{d.json}", *COUNT3], 5),
    (["spectrum", "--domain", "{d.json}", *COUNT3], {"cone": 5}),
    (["spectrum", "--domain", "{d.json}", *COUNT3],
     {"cylinder": {"n": 2.9, "base": 3.0, "h": 1.0}}),
    (["spectrum", "--domain", "{d.json}", *COUNT3],
     {"vertices": SQUARE, "free_edges": [3.7]}),
    (["spectrum", "--domain", "{d.json}", *COUNT3],     # edge 1 is the surface
     {"vertices": [[2, -1], [2, 0], [0, 0], [0, -1]], "free_edges": [True]}),
    (["verify", "--spectrum", "{n.csv}", "--bound", "john2d", "--grid", "1:2:1"],
     None),
], ids=["preset pi/0", "grid pi/0", "window pi/0", "cylinder n 2.7",
        "cylinder fem-h", "json number", "json cone number", "json cylinder n 2.9",
        "json free edge 3.7", "json free edge true", "spectrum meta n 2.5"])
def test_malformed_input_exits_2_with_one_error_line(argv, domain, tmp_path,
                                                     capsys):
    spectra.save_spectrum(spectra.rectangle_sn(math.pi, 1.0, 100), tmp_path / "s.csv")
    (tmp_path / "n.csv").write_text("# problem=SN\n# n=2.5\nindex,value\n1,0\n")
    (tmp_path / "d.json").write_text(json.dumps(domain))
    argv = [str(tmp_path / a[1:-1]) if a.startswith("{") else a for a in argv]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("command, grid, need", [
    (["riesz", "--gamma", "1"], "0:1e9:1", "has 1.000e+9 points, 8.00e+9 bytes"),
    (["verify", "--bound", "john2d"], "log1000000000(1,2)",
     "has 1.000e+9 points, 8.00e+9 bytes"),
    (["riesz", "--gamma", "1"], "0:1e300:1",
     "has 1.000e+300 points, 8.00e+300 bytes")])
def test_grid_too_large_to_allocate_exits_2_with_one_error_line(
        command, grid, need, tmp_path, capsys, monkeypatch):
    # the points are counted against the memory figure before any is
    # allocated, so the refusal costs no large array
    spec = tmp_path / "s.csv"
    spectra.save_spectrum(spectra.rectangle_sn(math.pi, 1.0, 100), spec)
    monkeypatch.setattr(specfun, "memory_limit", lambda: 4 * 10 ** 9)
    tracemalloc.start()
    try:
        rc = cli.main([command[0], "--spectrum", str(spec), *command[1:],
                       "--grid", grid])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 2 and peak < 10 ** 7
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    assert err == (f"error: grid spec {grid!r} {need}, more than the "
                   "4000000000 bytes this process may use; choose fewer points\n")


@pytest.mark.parametrize("command", [["riesz", "--gamma", "1"],
                                     ["verify", "--bound", "john2d"]])
@pytest.mark.parametrize("message, detail", [
    ("Unable to allocate 609. MiB for an array with shape (79800000,) and "
     "data type float64",
     " (Unable to allocate 609. MiB for an array with shape (79800000,) and "
     "data type float64)"),
    ("", "")])
def test_running_out_of_memory_exits_2_with_one_error_line(
        command, message, detail, tmp_path, capsys, monkeypatch):
    # a grid small enough for parse_grid's check can still exhaust memory
    # in evaluation, which holds several arrays of its size; the evaluation
    # raises here, so nothing large is allocated
    spec = tmp_path / "s.csv"
    spectra.save_spectrum(spectra.rectangle_sn(math.pi, 1.0, 100), spec)

    def exhausted(*args):
        raise MemoryError(message)

    monkeypatch.setattr(riesz, "riesz_mean_grid", exhausted)
    rc = cli.main([command[0], "--spectrum", str(spec), *command[1:],
                   "--grid", "0:40:2"])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert err == (f"error: {command[0]} ran out of memory{detail}; choose a "
                   "smaller grid, spectrum or mesh\n")


EXPLICIT = {"eigenvalues": [0, 1, 4], "bc": "neumann", "area": 2.0}


@pytest.mark.parametrize("domain", [
    {"cone": {"alpha": True, "h": 1}},
    {"cone": {"alpha": 0.5, "h": True}},
    {"cylinder": {"n": True, "base": 3.0, "h": 1}},
    {"cylinder": {"n": 2, "base": True, "h": 1}},
    {"cylinder": {"n": 3, "base": [1.0, False], "h": 1}},
    {"cylinder": {"n": 2, "base": 3.0, "h": True}},
    {"cylinder": {"n": 2, "base": {**EXPLICIT, "area": True}, "h": 1}},
    {"cylinder": {"n": 2, "base": {**EXPLICIT, "eigenvalues": [0, True]},
                  "h": 1}},
    {"vertices": [[0, 0], [0, -1], [2, -1], [2, True]], "free_edges": [3]},
], ids=["cone alpha", "cone h", "cylinder n", "cylinder base",
        "cylinder base side", "cylinder h", "explicit area",
        "explicit eigenvalues", "vertex"])
def test_domain_json_booleans_are_no_numbers(domain, tmp_path, capsys):
    path = tmp_path / "d.json"
    path.write_text(json.dumps(domain))
    with pytest.raises(ValueError, match="bad domain JSON .*must be a number, "
                                         "got (true|false)"):
        cli.load_domain(path)
    spec = tmp_path / "s.csv"
    spectra.save_spectrum(spectra.rectangle_sn(math.pi, 1.0, 100), spec)
    assert cli.main(["verify", "--spectrum", str(spec), "--bound", "main",
                     "--grid", "1:2:1", "--domain", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    assert err.startswith("error: ") and "bad domain JSON" in err


def test_readme_domain_json_forms_load(tmp_path):
    # every line of the README's JSON block is a domain file load_domain
    # reads, and the block shows each form
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme[readme.index("## Command line"):readme.index("## Demos")]
    block = section[section.index("```json\n") + len("```json\n"):]
    kinds = []
    for i, line in enumerate(block[:block.index("```")].splitlines()):
        path = tmp_path / f"d{i}.json"
        path.write_text(line)
        dom = cli.load_domain(path)
        kinds.append(type(getattr(dom, "base", dom)).__name__)
    assert sorted(kinds) == sorted(["PolygonalDomain", "IntervalBase",
                                    "RectangleBase", "ExplicitBase", "ConeDomain"])


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


def documented_commands(text, start):
    """The `steklov ...` lines that follow the first `start` line of `text`
    (blank lines between them allowed), as argument lists without the
    program name."""
    lines = iter(text.splitlines())
    next(line for line in lines if line.strip() == start)
    commands = []
    for line in lines:
        if line.strip().startswith("steklov "):
            commands.append(shlex.split(line)[1:])
        elif line.strip():
            break
    return commands


@pytest.mark.parametrize("where", ["README", "cli docstring"])
def test_documented_examples_exit_zero(where, tmp_path, monkeypatch, capsys):
    # each block writes s.csv first and reads it after, in a fresh directory
    if where == "README":
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        commands = documented_commands(readme[readme.index("## Command line"):],
                                       "```")
    else:
        commands = documented_commands(cli.__doc__, "Subcommands::")
    assert len(commands) >= 4 and commands[0][0] == "spectrum"
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert cli.main(argv) == 0, (argv, capsys.readouterr().err)
