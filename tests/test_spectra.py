"""Closed-form spectra: rectangles, cylinders, save/load round-trips."""

from __future__ import annotations

import io
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steklov import geometry, riesz, spectra
from steklov.geometry import CylinderDomain, IntervalBase, RectangleBase
from steklov.spectra import Spectrum, SpectrumError


def test_rectangle_sn_values():
    # nu_k = (k pi / L) tanh(k pi h / L); L = pi, h = 1 makes it k tanh(k)
    s = spectra.rectangle_sn(math.pi, 1.0, 6)
    expect = [k * math.tanh(k) for k in range(6)]
    assert s.values == pytest.approx(expect, rel=1e-15)
    assert s.problem == "SN"
    assert s.values[0] == 0.0


def test_rectangle_sn_frozen_value():
    # tanh(1) = 0.76159415595576488..., frozen independently
    s = spectra.rectangle_sn(math.pi, 1.0, 2)
    assert s.values[1] == pytest.approx(0.7615941559557649, rel=1e-15)


def test_rectangle_sd_values():
    # eta_j = (j pi / L) coth(j pi h / L), positive and j-increasing
    s = spectra.rectangle_sd(math.pi, 1.0, 5)
    expect = [j / math.tanh(j) for j in range(1, 6)]
    assert s.values == pytest.approx(expect, rel=1e-15)
    assert s.values[0] > 1.0  # coth > 1


def test_sd_dominates_sn_per_index():
    sn = spectra.rectangle_sn(2.0, 0.7, 41)
    sd = spectra.rectangle_sd(2.0, 0.7, 40)
    # eta_j >= nu_{j+1}: clamped walls raise every eigenvalue
    assert np.all(sd.values > sn.values[1:] - 1e-12)


def test_rectangle_scaling_relation():
    # nu_k(aL, ah) = nu_k(L, h) / a
    a = 2.5
    s1 = spectra.rectangle_sn(1.0, 0.4, 8)
    s2 = spectra.rectangle_sn(a, a * 0.4, 8)
    assert s2.values == pytest.approx(s1.values / a, rel=1e-14)


def test_shallow_rectangle_approaches_free_laplacian():
    # h -> infinity: nu_k -> k pi / L (tanh saturates)
    s = spectra.rectangle_sn(1.0, 50.0, 4)
    assert s.values[1] == pytest.approx(math.pi, rel=1e-12)


def test_interval_laplacian_neumann_and_dirichlet():
    lam_n = spectra.interval_laplacian(math.pi, "neumann", 4)
    assert lam_n == pytest.approx([0.0, 1.0, 4.0, 9.0])
    lam_d = spectra.interval_laplacian(math.pi, "dirichlet", 3)
    assert lam_d == pytest.approx([1.0, 4.0, 9.0])


def test_rectangle_laplacian_merges_sorted():
    lam = spectra.rectangle_laplacian(math.pi, math.pi, "neumann", 6)
    # 0, 1, 1, 2, 4, 4 for the pi x pi square
    assert lam == pytest.approx([0.0, 1.0, 1.0, 2.0, 4.0, 4.0])


def test_cylinder_over_interval_matches_rectangle():
    c = CylinderDomain(2, IntervalBase(math.pi), 1.0)
    for problem, maker in (("SN", spectra.rectangle_sn),
                           ("SD", spectra.rectangle_sd)):
        s = spectra.cylinder_spectrum(c, problem, 12)
        r = maker(math.pi, 1.0, 12)
        assert s.values == pytest.approx(r.values, rel=1e-13)


def test_cylinder_sn_formula_spot_check():
    # nu = sqrt(mu) tanh(sqrt(mu) h) over base eigenvalues mu
    c = CylinderDomain(3, RectangleBase(math.pi, math.pi), 0.5)
    s = spectra.cylinder_spectrum(c, "SN", 4)
    assert s.values[0] == 0.0
    assert s.values[1] == pytest.approx(math.tanh(0.5), rel=1e-13)
    assert s.values[3] == pytest.approx(math.sqrt(2) * math.tanh(math.sqrt(2) / 2),
                                        rel=1e-13)


def test_cylinder_sd_formula_spot_check():
    # eta = sqrt(lam) coth(sqrt(lam) h) over Dirichlet base eigenvalues
    c = CylinderDomain(3, RectangleBase(math.pi, math.pi), 0.5)
    s = spectra.cylinder_spectrum(c, "SD", 2)
    lam1 = 2.0
    assert s.values[0] == pytest.approx(
        math.sqrt(lam1) / math.tanh(math.sqrt(lam1) * 0.5), rel=1e-13)


@pytest.mark.parametrize("problem", ["SN", "SD"])
def test_cylinder_spectrum_carries_the_domain_metadata(problem):
    bc = "neumann" if problem == "SN" else "dirichlet"
    first = 0 if problem == "SN" else 1
    listed = tuple((np.arange(first, first + 50) * math.pi / 2.0) ** 2)
    domains = [CylinderDomain(2, IntervalBase(2.0), 0.7),
               CylinderDomain(3, RectangleBase(1.0, 2.0), 0.5),
               CylinderDomain(2, geometry.ExplicitBase(listed, bc, 2.0), 0.7),
               CylinderDomain(3, geometry.ExplicitBase(listed, bc, 1.5), 0.4)]
    for dom in domains:
        s = spectra.cylinder_spectrum(dom, problem, 40)
        assert s.meta == geometry.domain_metadata(dom)
    # an eigenvalue list may describe a disconnected surface: no corner claim
    assert "alpha" not in spectra.cylinder_spectrum(domains[2], problem, 40).meta
    assert spectra.cylinder_spectrum(domains[0], problem, 40).meta["alpha"] == math.pi / 2


def test_spectrum_ceiling_is_last_value():
    s = spectra.rectangle_sn(1.0, 1.0, 25)
    assert s.ceiling == pytest.approx(s.values[-1])


def test_spectrum_requires_sorted_nonnegative():
    with pytest.raises(SpectrumError):
        Spectrum(problem="SN", values=np.array([0.0, 2.0, 1.0]), source="t")
    with pytest.raises(SpectrumError):
        Spectrum(problem="SD", values=np.array([-0.5, 1.0]), source="t")


@pytest.mark.parametrize("problem, values, message", [
    ("SD", [-1.0, 2.0], "negative eigenvalue -1.0"),
    ("SN", [0.5, 1.0], "a sloshing spectrum starts at 0; got 0.5 (zero_tol = 1e-10)")])
def test_ground_mode_errors_print_plain_floats(problem, values, message):
    with pytest.raises(SpectrumError, match=f"^{re.escape(message)}$"):
        Spectrum(problem, np.array(values))


@pytest.mark.parametrize("problem, values, zero_tol, shown", [
    ("SN", [5.0, 6.0], math.inf, "inf"),
    ("SN", [5.0, 6.0], math.nan, "nan"),
    ("SN", [0.0, 5.0], -1e-12, "-1e-12"),
    ("SD", [1.0, 2.0], -1.0, "-1.0"),
    ("SN", [0.0, 5.0], "abc", "abc"),
    ("SN", [0.0, 1.0, 2.0], True, "True")])
def test_zero_tol_is_a_finite_real_at_least_zero(problem, values, zero_tol, shown):
    # an infinite or nan zero_tol once let a sloshing spectrum start at 5
    message = f"zero_tol must be a finite real >= 0, got {shown}"
    with pytest.raises(SpectrumError, match=f"^{re.escape(message)}$"):
        Spectrum(problem, values, zero_tol=zero_tol)


@pytest.mark.parametrize("text, shown", [("inf", "inf"), ("nan", "nan"),
                                         ("-1", "-1.0"), ("abc", "abc")])
def test_loaded_zero_tol_errors_name_the_file(text, shown, tmp_path):
    path = tmp_path / "s.csv"
    path.write_text(f"# problem=SN\n# zero_tol={text}\nindex,value\n1,5\n2,6\n")
    message = f"{path}: zero_tol must be a finite real >= 0, got {shown}"
    with pytest.raises(SpectrumError, match=f"^{re.escape(message)}$"):
        spectra.load_spectrum(path)


def test_spectrum_clamps_the_sloshing_ground_mode_only():
    # FEM solves pass raw eigensolver values: roundoff within zero_tol of 0
    # is stored as 0, in a new array, and SD values are kept as they are
    raw = np.array([-3e-13, -1e-14, 1.0])
    s = Spectrum("SN", raw, zero_tol=1e-8)
    assert s.values.tolist() == [0.0, 0.0, 1.0]
    assert raw.tolist() == [-3e-13, -1e-14, 1.0]
    raw = np.array([0.3, 1.0 + 1e-15, 2.5])
    assert Spectrum("SD", raw).values.tobytes() == raw.tobytes()


def test_sd_spectrum_rejects_zero_mode():
    with pytest.raises(SpectrumError):
        Spectrum(problem="SD", values=np.array([0.0, 1.0]), source="t")


def test_save_load_roundtrip(tmp_path):
    s = spectra.rectangle_sd(2.0, 0.3, 30)
    path = tmp_path / "spec.csv"
    spectra.save_spectrum(s, path)
    back = spectra.load_spectrum(path)
    assert back.problem == "SD"
    assert back.values == pytest.approx(s.values, rel=0, abs=0)  # exact text round-trip
    assert back.meta["areaF"] == pytest.approx(2.0)
    assert back.meta["n"] == 2
    assert back.meta["john"] is True


def test_save_spectrum_to_file_object():
    s = spectra.rectangle_sn(1.0, 1.0, 3)
    buf = io.StringIO()
    spectra.save_spectrum(s, buf)
    text = buf.getvalue()
    assert text.startswith("# problem=SN")
    assert "index,value" in text


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("index,value\n1,not-a-number\n")
    with pytest.raises(SpectrumError):
        spectra.load_spectrum(path)


def test_counts_are_validated():
    with pytest.raises(ValueError):
        spectra.rectangle_sn(1.0, 1.0, 0)
    with pytest.raises(ValueError):
        spectra.rectangle_sd(-1.0, 1.0, 5)
    # a bool is no count, a numpy integer is
    box = CylinderDomain(2, IntervalBase(1.0), 1.0)
    with pytest.raises(ValueError, match="count must be a positive integer, got True"):
        spectra.cylinder_spectrum(box, "SN", True)
    assert spectra.cylinder_spectrum(box, "SN", np.int64(3)).values.tobytes() \
        == spectra.cylinder_spectrum(box, "SN", 3).values.tobytes()


# ---------------------------------------------------------------------------
# the '# key=value' CSV codec shared by spectra and Riesz curves
# ---------------------------------------------------------------------------

def _reads_as_number(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


META_KEYS = st.from_regex(r"[a-z][a-z0-9_]{0,7}", fullmatch=True).filter(
    lambda k: k not in ("problem", "source", "zero_tol", "gamma",
                        "validity_ceiling", "john", "n"))
META_TEXT = st.text(st.characters(min_codepoint=32, max_codepoint=126),
                    min_size=1, max_size=12).filter(
    lambda t: t == t.strip() and t not in ("true", "false")
    and not _reads_as_number(t))
META_VALUES = st.one_of(st.booleans(), st.floats(allow_nan=False), META_TEXT)


@st.composite
def metadata(draw):
    meta = draw(st.dictionaries(META_KEYS, META_VALUES, max_size=6))
    if draw(st.booleans()):
        meta["john"] = draw(st.booleans())
    if draw(st.booleans()):
        meta["n"] = draw(st.integers())
    return meta


def _typed(meta):
    """Type and repr of every value: equal only for a bit-exact round trip."""
    return {k: (type(v), repr(v)) for k, v in meta.items()}


@settings(max_examples=80, deadline=None)
@given(meta=metadata())
def test_codec_round_trips_random_metadata_bit_exactly(meta, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "codec.csv"
    s = Spectrum("SN", [0.0, 0.5, 2.25], source="random meta", meta=meta)
    spectra.save_spectrum(s, path)
    back = spectra.load_spectrum(path)
    assert _typed(back.meta) == _typed(meta)
    assert back.source == "random meta"

    curve = riesz.RieszCurve(1.5, [0.0, 1.0], [0.0, 1.0], 2.25, meta=meta)
    riesz.save_curve(curve, path)
    assert _typed(riesz.load_curve(path).meta) == _typed(meta)


def test_curve_codec_rejects_what_the_spectrum_codec_rejects(tmp_path):
    path = tmp_path / "curve.csv"
    good = "# gamma=1\n# validity_ceiling=5\nz,value\n0,0\n1,1\n"
    for bad, message in (("# john=maybe\n", "must be true/false"),
                         ("# oops\n", "malformed meta line")):
        path.write_text(bad + good)
        with pytest.raises(SpectrumError, match=message):
            riesz.load_curve(path)
    path.write_text(good + "2\n")
    with pytest.raises(SpectrumError, match=re.escape(f"{path}:6: expected 'z,value'")):
        riesz.load_curve(path)


def test_curve_header_is_checked_and_errors_name_the_file(tmp_path):
    # a bad gamma was float()'s bare message, and an infinite ceiling made
    # the curve trusted at every z
    path = tmp_path / "curve.csv"
    rows = "z,value\n0,0\n1,1\n"
    for head, message in (
            ("# gamma=abc\n# validity_ceiling=5\n",
             "gamma must be a finite real >= 0, got abc"),
            ("# gamma=1\n# validity_ceiling=inf\n",
             "validity_ceiling must be a finite real >= 1.0, got inf"),
            ("# gamma=1\n# validity_ceiling=0.5\n",
             "validity_ceiling must be a finite real >= 1.0, got 0.5"),
            ("# gamma=1\n# validity_ceiling=5\n# problem=SN\n",
             "Riesz means are nondecreasing")):
        path.write_text(head + (rows if "problem" not in head
                                else "z,value\n0,1\n1,0\n"))
        with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
            riesz.load_curve(path)
    path.write_text("# gamma=1\n# validity_ceiling=1\n" + rows)
    assert riesz.load_curve(path).validity_ceiling == 1.0


@pytest.mark.parametrize("head, message", [
    ("# gamma=true\n# validity_ceiling=5\n", "gamma must be a finite real >= 0, got True"),
    ("# gamma=1\n# validity_ceiling=true\n",
     "validity_ceiling must be a finite real >= 1.0, got True")],
    ids=["gamma", "validity_ceiling"])
def test_curve_header_bools_are_refused(head, message, tmp_path):
    # a header's true once loaded as gamma 1.0 or ceiling 1.0
    path = tmp_path / "curve.csv"
    path.write_text(head + "z,value\n0,0\n1,1\n")
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}$"):
        riesz.load_curve(path)


def test_meta_value_errors_name_the_file_and_line(tmp_path):
    path = tmp_path / "s.csv"
    for meta, message in (("# n=2.5\n", "meta key n must be an integer, got '2.5'"),
                          ("# john=maybe\n", "meta key john must be true/false")):
        path.write_text("# problem=SN\n" + meta + "index,value\n1,0\n2,1\n")
        with pytest.raises(SpectrumError, match=re.escape(f"{path}:2: {message}")):
            spectra.load_spectrum(path)


def test_save_spectrum_writes_text_metadata(tmp_path):
    path = tmp_path / "s.csv"
    spectra.save_spectrum(Spectrum("SD", [1.0, 2.0], meta={"label": "abc"}), path)
    assert "# label=abc\n" in path.read_text()
    assert spectra.load_spectrum(path).meta == {"label": "abc"}


def explicit_cylinder(values, bc):
    return CylinderDomain(2, geometry.ExplicitBase(values, bc, 1.0), 1.0)


# id -> (call on the path of a file holding text, text, the error's whole
# message, with {path} for that path)
REFUSALS = {
    "empty": (lambda path: Spectrum("SN", []), None, "empty spectrum"),
    "nan": (lambda path: Spectrum("SN", [0.0, math.nan]), None,
            "spectrum contains non-finite values"),
    "interval bc": (lambda path: spectra.interval_laplacian(1.0, "robin", 3), None,
                    "bc must be 'neumann' or 'dirichlet', got 'robin'"),
    "rectangle bc": (lambda path: spectra.rectangle_laplacian(1.0, 1.0, "Neumann", 3),
                     None, "bc must be 'neumann' or 'dirichlet', got 'Neumann'"),
    "base tagged dirichlet": (
        lambda path: spectra.cylinder_spectrum(
            explicit_cylinder((1.0, 2.0), "dirichlet"), "SN", 2), None,
        "problem SN needs a neumann base spectrum, the explicit base is tagged "
        "dirichlet"),
    "short base": (
        lambda path: spectra.cylinder_spectrum(
            explicit_cylinder((0.0, 2.0), "neumann"), "SN", 5), None,
        "base spectrum has 2 values, need 5"),
    "no base": (lambda path: spectra.cylinder_spectrum(
        CylinderDomain(2, object(), 1.0), "SN", 2), None, "unsupported base object"),
    "header": (spectra.load_spectrum, "# problem=SN\nk,nu\n1,0\n",
               "{path}:2: expected header 'index,value', got 'k,nu'"),
    "index": (spectra.load_spectrum, "# problem=SN\nindex,value\n1,0\n3,1\n",
              "{path}:4: index column must run 1,2,...; got 3"),
    "no problem": (spectra.load_spectrum, "index,value\n1,0\n",
                   "{path}: missing '# problem=' line"),
    "no rows": (spectra.load_spectrum, "# problem=SN\nindex,value\n",
                "{path}: no eigenvalue rows found"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_refusals_name_the_fault(case, tmp_path):
    call, text, message = REFUSALS[case]
    path = tmp_path / "s.csv"
    if text is not None:
        path.write_text(text)
    with pytest.raises(ValueError, match=f"^{re.escape(message.format(path=path))}$"):
        call(path)
