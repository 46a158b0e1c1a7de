"""Exact free-surface spectra and the Spectrum container.

For a vertical cylinder F x (-h, 0) the surface eigenvalues separate: every
base Laplacian eigenvalue mu (Neumann for the sloshing problem SN, Dirichlet
for the clamped-wall problem SD) contributes

    SN:  sqrt(mu) * tanh(sqrt(mu) h)
    SD:  sqrt(mu) * coth(sqrt(mu) h)

In the plane the interval base gives the classical rectangle spectra
(k pi / l) tanh(k pi h / l), k >= 0, and (j pi / l) coth(j pi h / l), j >= 1.

Spectra are value-sorted, carry their provenance in ``source`` and enough
domain metadata for the bound evaluators, and round-trip through a small CSV
format bit-exactly (17 significant digits).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from . import specfun
from .geometry import (CylinderDomain, DomainError, ExplicitBase, IntervalBase,
                       RectangleBase, domain_metadata)

#: absolute tolerance for "the first sloshing eigenvalue is zero" (exact data)
TOL_ZERO = 1e-10


class SpectrumError(ValueError):
    """Raised for malformed spectra (unsorted, negative, wrong ground mode)."""


def check_problem(problem) -> None:
    """A SpectrumError unless ``problem`` names one of the two problems,
    "SN" or "SD"."""
    if problem not in ("SN", "SD"):
        raise SpectrumError(f"problem must be 'SN' or 'SD', got {problem!r}")


@dataclass(eq=False)
class Spectrum:
    """A sorted batch of surface eigenvalues of one problem on one domain.

    ``problem`` is "SN" (sloshing: walls Neumann) or "SD" (walls Dirichlet).
    ``source`` records provenance ("exact", "fem:h=...", "file:...").
    ``meta`` carries domain summary data (n, areaF, depth, alpha, beta, john)
    used by the bound evaluators; missing keys degrade to hypothesis flags.
    ``zero_tol``, a finite real >= 0, is how close to 0 the SN ground mode
    must be (and how far below 0 any first eigenvalue may lie); FEM spectra
    pass it with their raw eigensolver values, as this is the one place that
    checks the ground mode and stores roundoff below 0 as 0.
    """

    problem: str
    values: np.ndarray
    source: str = "exact"
    meta: dict = field(default_factory=dict)
    zero_tol: float = TOL_ZERO

    def __post_init__(self):
        check_problem(self.problem)
        try:
            self.zero_tol = specfun.real(self.zero_tol, "zero_tol", 0)
        except ValueError as exc:
            raise SpectrumError(str(exc)) from None
        vals = np.asarray(self.values, dtype=float).ravel()
        if vals.size == 0:
            raise SpectrumError("empty spectrum")
        if not np.all(np.isfinite(vals)):
            raise SpectrumError("spectrum contains non-finite values")
        if np.any(np.diff(vals) < 0):
            raise SpectrumError("eigenvalues must be sorted nondecreasing")
        if vals[0] < -self.zero_tol:
            raise SpectrumError(f"negative eigenvalue {float(vals[0])!r}")
        if self.problem == "SN":
            if vals[0] > self.zero_tol:
                raise SpectrumError(
                    f"a sloshing spectrum starts at 0; got {float(vals[0])!r} "
                    f"(zero_tol = {self.zero_tol})")
        elif vals[0] <= 0:
            raise SpectrumError("SD eigenvalues are strictly positive")
        vals = np.maximum(vals, 0.0)
        vals.setflags(write=False)
        self.values = vals

    def __len__(self) -> int:
        return int(self.values.size)

    @property
    def ceiling(self) -> float:
        """Largest stored eigenvalue: counting functions and Riesz means are
        only trustworthy up to here."""
        return float(self.values[-1])


def _stable_tanh(x: np.ndarray) -> np.ndarray:
    # tanh saturates to 1 exactly (in double precision) beyond ~19; clip at 40
    # so coth shares the same saturation point.
    return np.tanh(np.minimum(x, 40.0))


def _surface_values(base_values: np.ndarray, h: float, problem: str) -> np.ndarray:
    root = np.sqrt(base_values)
    t = _stable_tanh(root * h)
    if problem == "SN":
        return root * t
    with np.errstate(divide="ignore"):
        return np.where(root > 0, root / np.where(t > 0, t, 1.0), np.inf)


def rectangle_sn(length: float, h: float, count: int) -> Spectrum:
    """First ``count`` sloshing eigenvalues of the rectangle (0,length)x(-h,0):
    (k pi / length) tanh(k pi h / length), k = 0, 1, ...  (zero mode included).
    """
    return cylinder_spectrum(CylinderDomain(2, IntervalBase(length), h), "SN", count)


def rectangle_sd(length: float, h: float, count: int) -> Spectrum:
    """First ``count`` clamped-wall eigenvalues of the rectangle:
    (j pi / length) coth(j pi h / length), j = 1, 2, ...
    """
    return cylinder_spectrum(CylinderDomain(2, IntervalBase(length), h), "SD", count)


def interval_laplacian(length: float, bc: str, count: int) -> np.ndarray:
    """Eigenvalues (k pi / length)^2 of the interval; Neumann k >= 0,
    Dirichlet k >= 1."""
    length = specfun.real(length, "length", 0, strict=True)
    specfun._boundary_condition(bc)
    start = 0 if bc == "neumann" else 1
    k = np.arange(start, start + count, dtype=float)
    return (k * math.pi / length) ** 2


def rectangle_laplacian(a: float, b: float, bc: str, count: int) -> np.ndarray:
    """First ``count`` Laplacian eigenvalues (p pi/a)^2 + (q pi/b)^2 of the
    rectangle (0,a)x(0,b); Neumann p,q >= 0, Dirichlet p,q >= 1.

    Generated by a lazy heap walk over the (p, q) lattice, so the list is
    complete (no truncated-grid misses).
    """
    a = specfun.real(a, "a", 0, strict=True)
    b = specfun.real(b, "b", 0, strict=True)
    specfun._boundary_condition(bc)
    lo = 0 if bc == "neumann" else 1

    def val(p, q):
        return (p * math.pi / a) ** 2 + (q * math.pi / b) ** 2

    heap = [(val(lo, lo), lo, lo)]
    seen = {(lo, lo)}
    out = []
    while len(out) < count:
        v, p, q = heapq.heappop(heap)
        out.append(v)
        for np_, nq in ((p + 1, q), (p, q + 1)):
            if (np_, nq) not in seen:
                seen.add((np_, nq))
                heapq.heappush(heap, (val(np_, nq), np_, nq))
    return np.array(out)


def cylinder_spectrum(dom: CylinderDomain, problem: str, count: int) -> Spectrum:
    """Exact surface spectrum of a CylinderDomain (interval, rectangle, or
    explicit base): the first ``count`` surface values of its base spectrum
    (Neumann for SN, Dirichlet for SD), with the domain's metadata."""
    check_problem(problem)
    (count,) = specfun.indices(count, "count must be a positive integer")
    bc = "neumann" if problem == "SN" else "dirichlet"
    if isinstance(dom.base, IntervalBase):
        base = interval_laplacian(dom.base.length, bc, count)
    elif isinstance(dom.base, RectangleBase):
        base = rectangle_laplacian(dom.base.a, dom.base.b, bc, count)
    elif isinstance(dom.base, ExplicitBase):
        if dom.base.bc != bc:
            raise DomainError(
                f"problem {problem} needs a {bc} base spectrum, the explicit "
                f"base is tagged {dom.base.bc}")
        base = np.asarray(dom.base.eigenvalues)
        if base.size < count:
            raise ValueError(f"base spectrum has {base.size} values, need {count}")
    else:
        raise DomainError(f"unsupported base {type(dom.base).__name__}")
    # an explicit list may carry roundoff below 0 (ExplicitBase allows -1e-10)
    vals = np.sort(_surface_values(np.maximum(base[:count], 0.0), dom.depth, problem))
    return Spectrum(problem, vals, source="exact", meta=domain_metadata(dom))


# -- CSV round trip ---------------------------------------------------------
#
# One codec serves spectra and Riesz curves: '# key=value' metadata lines, a
# column header, then comma-separated rows.  Numbers carry 17 significant
# digits, so the decimal round trip is bit-exact.

#: metadata keys read back as text whatever they look like
_META_TEXT = ("problem", "source")


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, str):
        return v
    return format(float(v), ".17g")


def _parse_meta_value(key: str, text: str):
    if key in _META_TEXT:
        return text
    if text in ("true", "false"):
        return text == "true"
    if key == "john":
        raise SpectrumError(f"meta key {key} must be true/false, got {text!r}")
    if key == "n":
        try:
            return int(text)
        except ValueError:
            raise SpectrumError(f"meta key n must be an integer, got {text!r}")
    try:
        return float(text)
    except ValueError:
        return text


def write_text(text: str, dest) -> None:
    """Write ``text`` to an open text stream, or to a new file at path ``dest``."""
    if hasattr(dest, "write"):
        dest.write(text)
    else:
        with open(dest, "w") as fh:
            fh.write(text)


def write_table(dest, head: dict, meta: dict, columns: str, rows) -> None:
    """Write '# key=value' lines for ``head`` (in its order) and ``meta``
    (sorted by key), the ``columns`` header, then one line per row."""
    lines = [f"# {key}={_fmt(val)}"
             for key, val in [*head.items(), *sorted(meta.items())]]
    lines.append(columns)
    lines.extend(",".join(map(_fmt, row)) for row in rows)
    write_text("\n".join(lines) + "\n", dest)


def read_table(path, columns: str, types):
    """Read a file written by :func:`write_table`: (meta, rows), each row a
    (line number, fields) pair with its fields converted by ``types``."""
    meta: dict = {}
    rows = []
    header_seen = False
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" not in body:
                    raise SpectrumError(f"{path}:{lineno}: malformed meta line {line!r}")
                key, _, text = body.partition("=")
                key = key.strip()
                try:
                    meta[key] = _parse_meta_value(key, text.strip())
                except SpectrumError as exc:
                    raise SpectrumError(f"{path}:{lineno}: {exc}") from None
                continue
            if not header_seen:
                if line != columns:
                    raise SpectrumError(
                        f"{path}:{lineno}: expected header {columns!r}, got {line!r}")
                header_seen = True
                continue
            parts = line.split(",")
            if len(parts) != len(types):
                raise SpectrumError(f"{path}:{lineno}: expected {columns!r}, got {line!r}")
            try:
                rows.append((lineno, [t(p) for t, p in zip(types, parts)]))
            except ValueError as exc:
                raise SpectrumError(f"{path}:{lineno}: non-numeric row {line!r}") from exc
    return meta, rows


def save_spectrum(s: Spectrum, path) -> None:
    """Write a spectrum as CSV: '# key=value' header lines, then index,value
    rows with 17 significant digits (bit-exact decimal round trip)."""
    head = {"problem": s.problem, "source": s.source}
    if s.zero_tol != TOL_ZERO:
        head["zero_tol"] = s.zero_tol
    write_table(path, head, s.meta, "index,value", enumerate(s.values, start=1))


def load_spectrum(path) -> Spectrum:
    """Read a spectrum CSV written by :func:`save_spectrum` (validates
    sortedness, signs, zero_tol and the header structure; each
    SpectrumError names the file)."""
    meta, rows = read_table(path, "index,value", (int, float))
    for i, (lineno, (idx, _)) in enumerate(rows, start=1):
        if idx != i:
            raise SpectrumError(
                f"{path}:{lineno}: index column must run 1,2,...; got {idx}")
    problem = meta.pop("problem", None)
    source = meta.pop("source", None)
    if problem is None:
        raise SpectrumError(f"{path}: missing '# problem=' line")
    if not rows:
        raise SpectrumError(f"{path}: no eigenvalue rows found")
    zero_tol = meta.pop("zero_tol", TOL_ZERO)
    values = np.array([val for _, (_, val) in rows])
    try:
        return Spectrum(problem, values, source=source or f"file:{path}",
                        meta=meta, zero_tol=zero_tol)
    except SpectrumError as exc:
        raise SpectrumError(f"{path}: {exc}") from None
