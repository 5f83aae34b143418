"""Scenario files: schema validation, deterministic generation, execution.

A scenario is a small JSON object naming a pair (or a potential) and the
checks to run on it. Parsing is strict: unknown keys, inadmissible
exponents, or malformed matrices raise SchemaError before any numerics
start. Execution turns every check into a CheckRecord whose anchor names
the verified statement; the registry of anchor strings is fixed here.

Complex JSON entries are [re, im] pairs, matrices row-major nested lists.
Random instances are drawn from a single seeded generator per scenario so
files and reruns are bit-reproducible.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from itertools import chain
from typing import Any, Callable, Optional

import numpy as np

from . import __version__
from .dilation import default_block_count, dilation_pair
from .errors import InvalidExponent, SchemaError, ValidationError
from .export import dump_json, write_text
from .fractional import (
    FractionalJob,
    fractional_diff_quadrature,
    fractional_power,
    fractional_power_bound_report,
    resolvent_difference_identity_check,
)
from .linalg import (
    Contraction,
    Dissipative,
    Unitary,
    _eig,
    analytic_poly_eval,
    check_exponents,
    hermitize,
    operator_norm,
    polar_factors,
)
from .schrodinger import (
    discrete_schrodinger_pair,
    kernel_trace_report,
    make_grid,
    monotone_s1_check,
    potential_values,
)
from .ssf_circle import (
    determinant_ssf,
    dilation_ssf,
    hardy_gauge_check,
    perturbation_determinant,
    real_ssf_conditions_report,
    ssf_trace_integral,
    step_vs_sampled_max_deviation,
    unitary_ssf,
)
from .ssf_line import (
    cayley_identity_residuals,
    dissipative_condition_report,
    dissipative_ssf,
    perturbation_trace_report,
    resolvent_trace_sides,
    weighted_abs_integral,
)

MATRIX_CLASSES = ("unitary", "contraction", "dissipative", "psd_contraction")

# Every report record cites exactly one of these anchors; the value is a
# one-line statement of what the residual measures.
ANCHOR_REGISTRY = {
    "circle-trace-formula": "trace(f(U1) - f(U0)) equals the boundary integral of f' against the step SSF",
    "dilation-trace-formula": "contraction-pair trace identity through the block-dilation SSF",
    "power-dilation": "compressed dilation powers reproduce contraction powers up to order m - 2",
    "defect-identity": "exact algebraic identity tying defect-square differences to the perturbation",
    "hardy-gauge": "analytic test monomials integrate to zero, so the gauge term is invisible",
    "determinant-consistency": "calibrated determinant SSF matches the step SSF away from jumps",
    "determinant-lu-crosscheck": "eigenvalue-factor determinant matches the LU perturbation determinant",
    "cayley-defect-factorization": "squared Cayley defects factor through the imaginary part",
    "cayley-resolvent-difference": "Cayley-image difference equals the scaled resolvent difference",
    "line-resolvent-trace": "resolvent trace difference equals the line-SSF sum",
    "weighted-integral-consistency": "weighted line integral equals half the circle integral",
    "fractional-power-bound": "fractional-power difference norm obeys the weighted two-term bound",
    "fractional-quadrature": "integral-representation quadrature matches the eigendecomposition",
    "resolvent-difference-identity": "exact two-sided resolvent difference identity",
    "lattice-dissipativity": "discrete pair keeps its imaginary part at or above the identity",
    "schrodinger-resolvent": "lattice-pair resolvent trace formula through the line SSF",
    "kernel-trace-identity": "PSD kernel trace equals its trace norm",
    "kernel-positivity": "kernel matrix stays PSD up to roundoff",
    "kernel-half-l1": "kernel trace matches half the potential's L1 mass",
    "monotone-trace-ladder": "monotone potential ladder converges in trace norm at rate 1/n",
    "numeric-completion": "the scenario's numerics ran to the end without a numeric exception",
}
ANCHORS = frozenset(ANCHOR_REGISTRY)

# dilation block count of the line kinds when the file gives no dilation_order
LINE_BLOCKS = 24


# ---------------------------------------------------------------------------
# JSON field helpers (all failures are SchemaError with a field path)


def _fail(where: str, msg: str):
    raise SchemaError(f"{where}: {msg}")


def _complex_entry(v, where: str) -> complex:
    if isinstance(v, bool):
        _fail(where, "expected a number, got a boolean")
    if isinstance(v, (int, float)):
        return complex(_float_entry(v, where))
    if (
        isinstance(v, list)
        and len(v) == 2
        and all(isinstance(c, (int, float)) and not isinstance(c, bool) for c in v)
    ):
        return complex(_float_entry(v[0], where), _float_entry(v[1], where))
    _fail(where, "expected a number or an [re, im] pair")


def _float_entry(v, where: str) -> float:
    """A finite float; json.load also admits NaN, Infinity and integers of any size."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        _fail(where, "expected a real number")
    try:
        x = float(v)
    except OverflowError:
        _fail(where, "number exceeds the double-precision range")
    if not math.isfinite(x):
        _fail(where, "expected a finite number")
    return x


def _int_entry(v, where: str, lo: int, hi: int) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        _fail(where, "expected an integer")
    if not (lo <= v <= hi):
        _fail(where, f"must be in [{lo}, {hi}]")
    return v


def _matrix_cells(v: list) -> Optional[np.ndarray]:
    """A square list of real rows, or of rows of [re, im] pairs, as one array.

    None for anything else, such as mixed scalars and pairs or an integer past
    the float range; _matrix_entry then converts or rejects it cell by cell.
    """
    n = len(v)
    if not all(isinstance(row, list) and len(row) == n for row in v):
        return None
    cells = list(chain.from_iterable(v))
    kinds = set(map(type, cells))
    try:
        if kinds <= {float, int}:
            return np.array(v, dtype=float).astype(np.complex128)
        if kinds == {list} and set(map(len, cells)) == {2}:
            if set(map(type, chain.from_iterable(cells))) <= {float, int}:
                # the trailing [re, im] axis of float64 pairs is exactly complex128 memory
                return np.array(v, dtype=float).view(np.complex128).reshape(n, n)
    except OverflowError:
        pass
    return None


def _matrix_entry(v, where: str) -> np.ndarray:
    if not isinstance(v, list) or not v:
        _fail(where, "expected a nonempty nested array")
    out = _matrix_cells(v)
    if out is None:
        n = len(v)
        out = np.zeros((n, n), dtype=np.complex128)
        for i, row in enumerate(v):
            if not isinstance(row, list) or len(row) != n:
                _fail(where, f"row {i} does not make the matrix square")
            for j, cell in enumerate(row):
                out[i, j] = _complex_entry(cell, f"{where}[{i}][{j}]")
    if not np.all(np.isfinite(out)):
        _fail(where, "matrix entries must be finite")
    return out


def _check_keys(d: dict, allowed: set, where: str):
    unknown = sorted(set(d) - allowed)
    if unknown:
        _fail(where, f"unknown keys {unknown}; allowed: {sorted(allowed)}")


# ---------------------------------------------------------------------------
# random instances


def _gaussian_matrix(rng: np.random.Generator, dim: int) -> np.ndarray:
    return (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)


def _draw_matrix(rng: np.random.Generator, dim: int, klass: str, allow_boundary: bool = False) -> np.ndarray:
    g = _gaussian_matrix(rng, dim)
    if klass == "unitary":
        return polar_factors(g).partial_isometry
    if klass == "contraction":
        top = float(np.linalg.svd(g, compute_uv=False)[0])
        return g / (top if allow_boundary else top + 0.1)
    if klass == "dissipative":
        b = _gaussian_matrix(rng, dim)
        return hermitize(g) + 1j * (b @ b.conj().T) / dim
    if klass == "psd_contraction":
        u = polar_factors(g).partial_isometry
        return hermitize((u * rng.uniform(0.05, 0.95, dim)) @ u.conj().T)
    raise SchemaError(f"unknown matrix class {klass!r}")


def _random_pair(spec: dict, default_class: str, where: str) -> tuple[np.ndarray, np.ndarray]:
    _check_keys(spec, {"seed", "dim", "class", "allow_boundary"}, where)
    seed = _int_entry(spec.get("seed", 0), f"{where}.seed", 0, 2**63 - 1)
    dim = _int_entry(spec.get("dim", 4), f"{where}.dim", 1, 128)
    klass = spec.get("class", default_class)
    if klass not in MATRIX_CLASSES:
        _fail(f"{where}.class", f"must be one of {MATRIX_CLASSES}")
    allow_boundary = spec.get("allow_boundary", False)
    if not isinstance(allow_boundary, bool):
        _fail(f"{where}.allow_boundary", "expected a boolean")
    rng = np.random.default_rng(seed)
    return (
        _draw_matrix(rng, dim, klass, allow_boundary),
        _draw_matrix(rng, dim, klass, allow_boundary),
    )


def _parse_matrices(data: dict, kind: str) -> tuple[np.ndarray, np.ndarray]:
    if "matrices" not in data:
        _fail("matrices", f"required for kind {kind!r}")
    raw = data["matrices"]
    if isinstance(raw, dict):
        return _random_pair(raw, _KINDS[kind].matrix_class, "matrices")
    if isinstance(raw, list) and len(raw) == 2:
        m0 = _matrix_entry(raw[0], "matrices[0]")
        m1 = _matrix_entry(raw[1], "matrices[1]")
        if m0.shape != m1.shape:
            _fail("matrices", "the two matrices must have equal dimensions")
        return m0, m1
    _fail("matrices", "expected a random spec object or a list of two matrices")


# ---------------------------------------------------------------------------
# potential / grid / exponent sub-schemas


# the real parameters of each analytic potential shape, beside its complex amplitude
_SHAPE_KEYS = {"gaussian": ("center", "width"), "bump": ("center", "half_width", "taper")}


def _parse_potential(raw, where: str = "potential") -> dict:
    if raw is None:
        return {"kind": "gaussian"}
    if not isinstance(raw, dict):
        _fail(where, "expected a descriptor object")
    desc = dict(raw)
    kind = desc.get("kind")
    if isinstance(kind, str) and kind in _SHAPE_KEYS:
        _check_keys(desc, {"kind", "amplitude", *_SHAPE_KEYS[kind]}, where)
        if "amplitude" in desc:
            desc["amplitude"] = _complex_entry(desc["amplitude"], f"{where}.amplitude")
        for key in _SHAPE_KEYS[kind]:
            if key in desc:
                desc[key] = _float_entry(desc[key], f"{where}.{key}")
    elif kind == "table":
        _check_keys(desc, {"kind", "x", "q"}, where)
        xs = desc.get("x")
        qs = desc.get("q")
        if not isinstance(xs, list) or not isinstance(qs, list) or len(xs) != len(qs) or not xs:
            _fail(where, "table needs equal-length nonempty x and q lists")
        desc["x"] = [_float_entry(v, f"{where}.x[{i}]") for i, v in enumerate(xs)]
        desc["q"] = [_complex_entry(v, f"{where}.q[{i}]") for i, v in enumerate(qs)]
    else:
        _fail(where, f"unknown potential kind {kind!r}")
    try:
        potential_values(desc, np.linspace(-1.0, 1.0, 5))
    except ValueError as exc:
        _fail(where, str(exc))
    return desc


def _parse_grid(raw, defaults: dict) -> dict:
    """The grid over the kind's defaults; a default scheme makes it a quadrature grid."""
    out = dict(defaults)
    if raw is None:
        return out
    if not isinstance(raw, dict):
        _fail("grid", "expected an object")
    _check_keys(raw, set(defaults), "grid")
    if "lo" in raw:
        out["lo"] = _float_entry(raw["lo"], "grid.lo")
    if "hi" in raw:
        out["hi"] = _float_entry(raw["hi"], "grid.hi")
    if out["hi"] <= out["lo"]:
        _fail("grid", "hi must exceed lo")
    if "nodes" in raw:
        out["nodes"] = _int_entry(raw["nodes"], "grid.nodes", 2, 4096)
    if "scheme" in raw:
        if raw["scheme"] not in ("gauss", "trapezoid"):
            _fail("grid.scheme", "must be 'gauss' or 'trapezoid'")
        out["scheme"] = raw["scheme"]
    if out.get("scheme") == "gauss" and (out["nodes"] % 16 or out["nodes"] < 16):
        _fail("grid.nodes", "gauss grids need a positive multiple of 16 nodes")
    return out


def _parse_exponents(raw, kind: str) -> dict:
    if kind == "fractional":
        out = {"sigma": 0.5, "alpha": 0.5, "beta": 0.25, "p": 1.0}
    else:
        out = {"alpha": 0.5, "beta": 0.5, "p": 1.0}
    allowed = set(out)
    if raw is not None:
        if not isinstance(raw, dict):
            _fail("exponents", "expected an object")
        _check_keys(raw, allowed, "exponents")
        for key in allowed & set(raw):
            out[key] = _float_entry(raw[key], f"exponents.{key}")
    try:
        check_exponents(out["alpha"], out["beta"], out["p"], out.get("sigma"))
    except InvalidExponent as exc:
        _fail("exponents", str(exc))
    return out


def _parse_z_values(raw) -> tuple[complex, ...]:
    if raw is None:
        return (-2j,)
    if not isinstance(raw, list) or not raw:
        _fail("z_values", "expected a nonempty list")
    out = []
    for i, v in enumerate(raw):
        z = _complex_entry(v, f"z_values[{i}]")
        if z.imag > -1e-6:
            _fail(f"z_values[{i}]", "resolvent points must sit below the real axis")
        out.append(z)
    return tuple(out)


def _parse_polynomials(raw, degree: int) -> tuple[tuple[complex, ...], ...]:
    if raw is None:
        return tuple((0j,) * k + (1 + 0j,) for k in range(1, degree + 1))
    if not isinstance(raw, list) or not raw:
        _fail("test_polynomials", "expected a nonempty list of coefficient lists")
    polys = []
    for i, coeffs in enumerate(raw):
        if not isinstance(coeffs, list) or not coeffs or len(coeffs) > 25:
            _fail(f"test_polynomials[{i}]", "expected 1 to 25 ascending coefficients")
        polys.append(tuple(_complex_entry(c, f"test_polynomials[{i}][{j}]") for j, c in enumerate(coeffs)))
    return tuple(polys)


def _parse_determinant(raw) -> Optional[dict]:
    if raw is None:
        return None
    if not isinstance(raw, dict):
        _fail("determinant", "expected an object")
    _check_keys(raw, {"radius", "grid"}, "determinant")
    radius = _float_entry(raw.get("radius", 1.0 + 1e-4), "determinant.radius")
    if radius <= 1.0 + 1e-8:
        _fail("determinant.radius", "must exceed 1 + 1e-8")
    grid = _int_entry(raw.get("grid", 4096), "determinant.grid", 256, 1 << 16)
    return {"radius": radius, "grid": grid}


def _parse_monotone(raw) -> Optional[dict]:
    if raw is None:
        return None
    if not isinstance(raw, dict):
        _fail("monotone", "expected an object")
    _check_keys(raw, {"n", "variant", "level"}, "monotone")
    ns = raw.get("n")
    if not isinstance(ns, list) or not ns or len(ns) > 16:
        _fail("monotone.n", "expected a list of 1 to 16 integers")
    ns = [_int_entry(v, f"monotone.n[{i}]", 1, 1 << 20) for i, v in enumerate(ns)]
    if any(b <= a for a, b in zip(ns, ns[1:])):
        _fail("monotone.n", "must be strictly increasing")
    variant = raw.get("variant", "scale")
    if variant not in ("scale", "truncate"):
        _fail("monotone.variant", "must be 'scale' or 'truncate'")
    level = _float_entry(raw.get("level", 0.01), "monotone.level")
    if level <= 0:
        _fail("monotone.level", "must be positive")
    return {"n": ns, "variant": variant, "level": level}


# ---------------------------------------------------------------------------
# the scenario object


@dataclass(frozen=True, eq=False)
class Scenario:
    """One parsed scenario file, with defaults resolved."""

    name: str
    kind: str
    config_hash: str
    matrices: Optional[tuple[np.ndarray, np.ndarray]]
    dilation_order: Optional[int]
    test_polynomials: tuple[tuple[complex, ...], ...]
    determinant: Optional[dict]
    z_values: tuple[complex, ...]
    exponents: dict
    quadrature_nodes: int
    grid: Optional[dict]
    potential: Optional[dict]
    spectral_point: float
    monotone: Optional[dict]
    tolerances: dict
    outputs: tuple[str, ...]


def _config_hash(data: dict, matrices: Optional[tuple[np.ndarray, np.ndarray]]) -> str:
    """sha256 of the canonical JSON of the file without an explicit matrices list, then of
    each explicit matrix's shape and little-endian complex128 bytes. A random spec stays in
    the JSON: the matrices drawn from it pass through an SVD whose last bits vary by BLAS."""
    explicit = isinstance(data.get("matrices"), list)
    rest = {k: v for k, v in data.items() if k != "matrices"} if explicit else data
    h = hashlib.sha256(json.dumps(rest, sort_keys=True, separators=(",", ":"), allow_nan=False).encode("utf-8"))
    for m in matrices if explicit else ():
        h.update(np.asarray(m.shape, dtype="<i8").tobytes())
        h.update(np.ascontiguousarray(m, dtype="<c16").tobytes())
    return h.hexdigest()


def parse_scenario(data: Any) -> Scenario:
    if not isinstance(data, dict):
        raise SchemaError("scenario must be a JSON object")
    name = data.get("name")
    if not isinstance(name, str) or not name.strip():
        _fail("name", "required nonempty string")
    if any(c in name for c in "/\\\0") or name.strip() in (".", ".."):
        _fail("name", "names the output files: no '/', '\\' or NUL, and not '.' or '..'")
    kind = data.get("kind")
    if not isinstance(kind, str) or kind not in _KINDS:
        _fail("kind", f"must be one of {KINDS}")
    spec = _KINDS[kind]
    _check_keys(data, {"name", "kind", "outputs", "tolerances"} | spec.keys, "scenario")

    outputs_raw = data.get("outputs", ["json"])
    if not isinstance(outputs_raw, list) or any(o not in ("json", "csv", "svg") for o in outputs_raw):
        _fail("outputs", "expected a list drawn from ['json', 'csv', 'svg']")
    outputs = tuple(dict.fromkeys(outputs_raw))

    tol_raw = data.get("tolerances", {})
    if not isinstance(tol_raw, dict):
        _fail("tolerances", "expected an object of check_id to tolerance")
    tolerances = {}
    for key, v in tol_raw.items():
        t = _float_entry(v, f"tolerances.{key}")
        if t <= 0:
            _fail(f"tolerances.{key}", "must be positive")
        tolerances[str(key)] = t

    matrices = None if spec.matrix_class is None else _parse_matrices(data, kind)

    dilation_order = None
    if "dilation_order" in data:
        dilation_order = _int_entry(data["dilation_order"], "dilation_order", 3, 64)

    polys = _parse_polynomials(data.get("test_polynomials"), spec.degree)

    spectral_point = -1.0
    if "spectral_point" in data:
        spectral_point = _float_entry(data["spectral_point"], "spectral_point")
        if spectral_point >= -1e-12:
            _fail("spectral_point", "must be strictly negative (below the branch cut)")

    return Scenario(
        name=name.strip(),
        kind=kind,
        matrices=matrices,
        dilation_order=dilation_order,
        test_polynomials=polys,
        determinant=_parse_determinant(data.get("determinant")),
        z_values=_parse_z_values(data.get("z_values")),
        exponents=_parse_exponents(data.get("exponents"), kind),
        quadrature_nodes=_int_entry(data.get("quadrature_nodes", 200), "quadrature_nodes", 32, 2000),
        grid=None if spec.grid is None else _parse_grid(data.get("grid"), spec.grid),
        potential=None if spec.grid is None else _parse_potential(data.get("potential")),
        spectral_point=spectral_point,
        monotone=_parse_monotone(data.get("monotone")),
        tolerances=tolerances,
        outputs=outputs,
        # hashed last, once every other key is validated: a NaN anywhere is a SchemaError first
        config_hash=_config_hash(data, matrices),
    )


def load_scenario(path) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8 text ({exc})") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON ({exc})") from exc
    except RecursionError as exc:
        raise SchemaError(f"{path}: nested too deeply to parse ({exc})") from exc
    return parse_scenario(data)


# ---------------------------------------------------------------------------
# generation


def _matrix_to_json(m: np.ndarray) -> list:
    return np.stack((m.real, m.imag), axis=-1).tolist()


def generate_scenario(kind: str, seed: int, dim: int) -> dict:
    """Deterministic scenario dict for (kind, seed, dim); see the generator
    recipes in _draw_matrix. The file embeds explicit matrices so reruns and
    re-generations are byte-identical."""
    if kind not in _KINDS:
        raise SchemaError(f"kind must be one of {KINDS}")
    if not isinstance(seed, int) or seed < 0:
        raise SchemaError("seed must be a nonnegative integer")
    if not isinstance(dim, int) or not (1 <= dim <= 64):
        raise SchemaError("dim must be an integer in [1, 64]")
    spec = _KINDS[kind]
    rng = np.random.default_rng(seed)
    payload = {"name": f"{kind}-seed{seed}-dim{dim}", "kind": kind, "outputs": list(spec.outputs)}
    if spec.matrix_class is not None:
        payload["matrices"] = [_matrix_to_json(_draw_matrix(rng, dim, spec.matrix_class)) for _ in range(2)]
    payload.update(spec.generated(rng, dim))
    return payload


def _line_keys(rng: np.random.Generator, dim: int) -> dict:
    return {"z_values": [[0.0, -2.0]], "dilation_order": LINE_BLOCKS}


def _schrodinger_keys(rng: np.random.Generator, dim: int) -> dict:
    return {
        "grid": {"lo": -8.0, "hi": 8.0, "nodes": max(2, dim)},
        "potential": {
            "kind": "gaussian",
            "amplitude": [float(rng.uniform(0.25, 1.0)), float(rng.uniform(0.5, 1.5))],
            "width": float(rng.uniform(0.8, 1.25)),
        },
        **_line_keys(rng, dim),
    }


def _kernel_trace_keys(rng: np.random.Generator, dim: int) -> dict:
    return {
        "grid": {"lo": -8.0, "hi": 8.0, "nodes": max(64, 16 * ((dim + 15) // 16))},
        "potential": {
            "kind": "gaussian",
            "amplitude": float(rng.uniform(0.5, 1.5)),
            "width": float(rng.uniform(0.8, 1.25)),
        },
        "monotone": {"n": [2, 4, 8, 16, 32, 64, 128]},
    }


def write_scenario(payload: dict, path) -> None:
    write_text(path, dump_json(payload))


# ---------------------------------------------------------------------------
# execution


@dataclass(frozen=True, eq=False)
class CheckRecord:
    """One verified statement: residual against tolerance."""

    check_id: str
    anchor: str
    lhs: complex
    rhs: complex
    residual: Optional[float]
    tolerance: float
    passed: bool


@dataclass(frozen=True, eq=False)
class Report:
    scenario: str
    kind: str
    records: tuple[CheckRecord, ...]
    flags: dict
    tables: dict
    provenance: dict

    @property
    def all_pass(self) -> bool:
        return all(r.passed for r in self.records)

    def failed(self) -> list[CheckRecord]:
        return [r for r in self.records if not r.passed]


_AUTO = object()


def _fields(rep, *drop) -> dict:
    """A report record's fields as flags, without the named ones."""
    return {k: v for k, v in vars(rep).items() if k not in drop}


def _run_unitary_pair(sc: Scenario, record: Callable) -> tuple[dict, dict]:
    ssf = unitary_ssf(*(Unitary(m) for m in sc.matrices))
    return _circle_pair_checks(sc, record, ssf, "circle-trace-formula", 1e-10, {})


def _circle_pair_checks(sc, record, ssf, anchor, tol, flags):
    """Trace-formula, Hardy-gauge and determinant checks of a circle-kind pair."""
    m0, m1 = sc.matrices
    for j, coeffs in enumerate(sc.test_polynomials):
        lhs = np.trace(analytic_poly_eval(m1, coeffs)) - np.trace(analytic_poly_eval(m0, coeffs))
        record(f"trace-poly-{j}", anchor, lhs, ssf_trace_integral(ssf, coeffs), tol)
    record("hardy-gauge", "hardy-gauge", hardy_gauge_check(1, sc.test_polynomials[0]), 0.0, 1e-10)
    flags = {"gauge": ssf.gauge, "jump_count": len(ssf.jumps), **flags}
    tables = {"circle_step": ssf}
    _determinant_block(sc, record, m0, m1, ssf, flags, tables)
    return flags, tables


def _determinant_block(sc, record, m0, m1, step_ssf, flags, tables):
    """Step-consistency and LU checks of the determinant route. Each gap is nonnegative and
    so its own residual; a check that could not run records residual None."""
    if sc.determinant is None:
        return
    deviation = lu_gap = None
    try:
        sampled = determinant_ssf(m0, m1, radius=sc.determinant["radius"], grid=sc.determinant["grid"])
        # independent LU evaluation at theta = (k + 1/2) 2pi / 8 on the sampling circle
        probes = sampled.radius * np.exp(2j * np.pi * (np.arange(8) + 0.5) / 8)
        lu_gap = max(abs(sampled.determinant(z) / perturbation_determinant(m0, m1, z) - 1) for z in probes)
    except ArithmeticError as exc:
        flags["determinant_error"] = f"{type(exc).__name__}: {exc}"
    else:
        try:
            deviation = step_vs_sampled_max_deviation(step_ssf, sampled)
        except ValidationError as exc:
            # every grid point lies near a jump: nothing to compare, which fails the check
            flags["determinant_step_error"] = f"{type(exc).__name__}: {exc}"
        flags["determinant_winding"] = sampled.winding
        tables["sampled"] = sampled
    record("determinant-step-consistency", "determinant-consistency", deviation or 0.0, 0.0, 5e-2, residual=deviation)
    record("determinant-lu-crosscheck", "determinant-lu-crosscheck", lu_gap or 0.0, 0.0, 1e-8, residual=lu_gap)


def _run_contraction_pair(sc: Scenario, record: Callable) -> tuple[dict, dict]:
    m0, m1 = sc.matrices
    t0, t1 = Contraction(m0), Contraction(m1)
    max_deg = max(len(c) - 1 for c in sc.test_polynomials)
    blocks = sc.dilation_order or default_block_count(max_deg)
    d0, d1 = dilation_pair(t0, t1, blocks)
    worst = 0.0
    for dil, base in ((d0, m0), (d1, m1)):
        power = base
        for corner in dil.compressed_powers(blocks - 2):
            worst = max(worst, operator_norm(corner - power))
            power = power @ base
    record("power-dilation", "power-dilation", worst, 0.0, 1e-10)
    conditions = real_ssf_conditions_report(
        t0, t1, sc.exponents["alpha"], sc.exponents["beta"], sc.exponents["p"]
    )
    record("defect-identity", "defect-identity", conditions.identity_residual, 0.0, 1e-12)
    flags = {"block_count": blocks, **_fields(conditions, "alpha", "beta", "p", "identity_residual")}
    ssf = dilation_ssf(d0, d1)
    return _circle_pair_checks(sc, record, ssf, "dilation-trace-formula", 1e-9, flags)


def _line_pair_checks(sc, record, l0, l1, tol_resolvent, anchor):
    """Line SSF, resolvent and weighted checks of a dissipative pair: (flags, tables)."""
    blocks = sc.dilation_order or LINE_BLOCKS
    ssf = dissipative_ssf(l0, l1, blocks)
    for j, z in enumerate(sc.z_values):
        record(f"resolvent-z{j}", anchor, *resolvent_trace_sides(l0.m, l1.m, ssf, z), tol_resolvent)
    record(
        "weighted-consistency",
        "weighted-integral-consistency",
        weighted_abs_integral(ssf, side="line"),
        weighted_abs_integral(ssf, side="circle"),
        1e-12,
    )
    flags = {
        "block_count": blocks,
        "jump_count": len(ssf.breakpoints),
        "mass_at_infinity": ssf.mass_at_infinity,
        **_fields(perturbation_trace_report(l0, l1, ssf)),
    }
    return flags, {"line_step": ssf}


def _run_dissipative_pair(sc: Scenario, record: Callable) -> tuple[dict, dict]:
    l0, l1 = (Dissipative(m) for m in sc.matrices)
    idents = cayley_identity_residuals(l0, l1)
    record(
        "cayley-defect-factorization",
        "cayley-defect-factorization",
        max(max(idents.defect_sq_residuals), max(idents.adjoint_defect_sq_residuals)),
        0.0,
        1e-9,
    )
    record(
        "cayley-resolvent-difference",
        "cayley-resolvent-difference",
        idents.resolvent_difference_residual,
        0.0,
        1e-9,
    )
    flags, tables = _line_pair_checks(sc, record, l0, l1, 1e-6, "line-resolvent-trace")
    try:
        flags["condition_report"] = _fields(dissipative_condition_report(l0, l1, p=sc.exponents.get("p", 1.0)))
    except ArithmeticError as exc:
        flags["condition_report"] = f"{type(exc).__name__}: {exc}"
    return flags, tables


def _run_fractional(sc: Scenario, record: Callable) -> tuple[dict, dict]:
    x, y = sc.matrices
    e = sc.exponents
    job = FractionalJob(x=x, y=y, sigma=e["sigma"], alpha=e["alpha"], beta=e["beta"], p=e["p"])
    bound_rep = fractional_power_bound_report(job)
    record(
        "fractional-bound",
        "fractional-power-bound",
        bound_rep.lhs,
        bound_rep.bound,
        1e-10,
        residual=max(0.0, bound_rep.lhs - bound_rep.bound),
    )
    exact = fractional_power(job.y, job.sigma) - fractional_power(job.x, job.sigma)
    quad = fractional_diff_quadrature(job, nodes=sc.quadrature_nodes)
    rel = float(np.linalg.norm(quad - exact) / max(np.linalg.norm(exact), 1e-12))
    record("fractional-quadrature", "fractional-quadrature", rel, 0.0, 1e-6)
    worst = max(resolvent_difference_identity_check(job.x, job.y, t) for t in (0.01, 1.0, 100.0))
    record("resolvent-identity", "resolvent-difference-identity", worst, 0.0, 1e-11)
    return {**_fields(bound_rep, "holds"), "min_eig": job.min_eig}, {}


def _run_schrodinger(sc: Scenario, record: Callable) -> tuple[dict, dict]:
    g = sc.grid
    x = np.linspace(g["lo"], g["hi"], g["nodes"])
    q = np.asarray(potential_values(sc.potential, x), dtype=np.complex128)
    l0, l1 = discrete_schrodinger_pair(q, float(x[1] - x[0]))
    floor = float(_eig(np.linalg.eigvalsh, l0.imag_part).min())
    record(
        "lattice-dissipativity",
        "lattice-dissipativity",
        floor,
        1.0,
        1e-10,
        residual=max(0.0, 1.0 - floor),
    )
    flags, tables = _line_pair_checks(sc, record, l0, l1, 1e-5, "schrodinger-resolvent")
    del flags["left_tail"], flags["right_tail"]
    flags["nodes"] = g["nodes"]
    return flags, tables


def _run_kernel_trace(sc: Scenario, record: Callable) -> tuple[dict, dict]:
    g = sc.grid
    grid = make_grid(g["lo"], g["hi"], g["nodes"], scheme=g["scheme"])
    rep = kernel_trace_report(sc.potential, grid, z=sc.spectral_point)
    record("kernel-trace-identity", "kernel-trace-identity", rep.trace, rep.trace_norm, 1e-10)
    record(
        "kernel-positivity",
        "kernel-positivity",
        rep.min_eigenvalue,
        0.0,
        1e-10,
        residual=max(0.0, -rep.min_eigenvalue),
    )
    if abs(sc.spectral_point + 1.0) < 1e-12:
        record("kernel-half-l1", "kernel-half-l1", rep.trace, rep.half_l1_target, 1e-4)
    flags = {**_fields(rep), "spectral_point": sc.spectral_point}
    if sc.monotone is not None:
        mon = monotone_s1_check(
            sc.potential,
            grid,
            sc.monotone["n"],
            variant=sc.monotone["variant"],
            level=sc.monotone["level"],
        )
        if mon.variant == "scale":
            worst = max(
                abs(r - mon.full_norm / n) for n, r in zip(mon.n_values, mon.residual_norms)
            )
        else:
            worst = max(
                [0.0]
                + [a - b for a, b in zip(mon.approx_norms, mon.approx_norms[1:])]
                + [b - a for a, b in zip(mon.residual_norms, mon.residual_norms[1:])]
            )
        record("monotone-ladder", "monotone-trace-ladder", worst, 0.0, 1e-10)
        flags["monotone"] = {**_fields(mon, "n_values"), "n": mon.n_values}
    return flags, {}


@dataclass(frozen=True)
class _Kind:
    """What one scenario kind decides. The runner looks its numerics up by name as it runs."""

    run: Callable[[Scenario, Callable], tuple[dict, dict]]  # (sc, record) -> (flags, tables)
    keys: frozenset  # top-level keys beyond name, kind, outputs and tolerances
    matrix_class: Optional[str]  # class of a random pair; None for the potential kinds
    generated: Callable[..., dict] = lambda rng, dim: {}  # (rng, dim) -> its keys in a generated file
    outputs: tuple[str, ...] = ("json", "csv", "svg")  # outputs a generated file asks for
    grid: Optional[dict] = None  # grid defaults; their keys are the allowed grid keys
    degree: int = 3  # the default test polynomials are the monomials z, ..., z^degree


_KINDS = {
    "unitary_pair": _Kind(
        _run_unitary_pair, frozenset({"matrices", "test_polynomials", "determinant"}), "unitary", degree=4
    ),
    "contraction_pair": _Kind(
        _run_contraction_pair,
        frozenset({"matrices", "test_polynomials", "determinant", "dilation_order", "exponents"}),
        "contraction",
        lambda rng, dim: {"dilation_order": 6},
    ),
    "dissipative_pair": _Kind(
        _run_dissipative_pair, frozenset({"matrices", "dilation_order", "z_values"}), "dissipative", _line_keys
    ),
    "fractional": _Kind(
        _run_fractional,
        frozenset({"matrices", "exponents", "quadrature_nodes"}),
        "psd_contraction",
        lambda rng, dim: {"exponents": {"sigma": 0.5, "alpha": 0.5, "beta": 0.25, "p": 1.0}},
        outputs=("json",),
    ),
    "schrodinger": _Kind(
        _run_schrodinger,
        frozenset({"grid", "potential", "dilation_order", "z_values"}),
        None,
        _schrodinger_keys,
        grid={"lo": -8.0, "hi": 8.0, "nodes": 64},
    ),
    "kernel_trace": _Kind(
        _run_kernel_trace,
        frozenset({"grid", "potential", "spectral_point", "monotone"}),
        None,
        _kernel_trace_keys,
        outputs=("json",),
        grid={"lo": -8.0, "hi": 8.0, "nodes": 1024, "scheme": "gauss"},
    ),
}
KINDS = tuple(_KINDS)


def run_scenario(sc: Scenario, tolerance_scale: float = 1.0) -> Report:
    """Execute every check the scenario's kind implies.

    Data problems that surface during execution (a matrix failing its class
    validation, an inadmissible potential) are reported as SchemaError: the
    file was wrong, not the numerics. Numeric check failures never raise;
    they become failing records. A numeric exception (an ArithmeticError)
    ends the run with the records made so far plus a failing
    numeric-completion record, with the error text in the flags.
    """
    if not isinstance(tolerance_scale, (int, float)) or not 0 < tolerance_scale < math.inf:
        raise SchemaError("tolerance_scale must be a positive finite number")
    records: list[CheckRecord] = []

    def record(check_id, anchor, lhs, rhs, tol, residual=_AUTO):
        if anchor not in ANCHORS:
            raise RuntimeError(f"internal: unregistered anchor {anchor!r}")
        tol_val = float(sc.tolerances.get(check_id, tol)) * float(tolerance_scale)
        if residual is _AUTO:
            res: Optional[float] = abs(complex(lhs) - complex(rhs))
            passed = res <= tol_val
        elif residual is None:
            res, passed = None, False
        else:
            res = float(residual)
            passed = res <= tol_val
        records.append(
            CheckRecord(str(check_id), anchor, complex(lhs), complex(rhs), res, tol_val, bool(passed))
        )

    try:
        flags, tables = _KINDS[sc.kind].run(sc, record)
    except SchemaError:
        raise
    except ArithmeticError as exc:
        flags, tables = {"numeric_error": f"{type(exc).__name__}: {exc}"}, {}
        record("numeric-completion", "numeric-completion", 0.0, 0.0, 0.0, residual=None)
    except ValueError as exc:
        raise SchemaError(f"scenario {sc.name!r}: {exc}") from exc
    return Report(
        scenario=sc.name,
        kind=sc.kind,
        records=tuple(records),
        flags=flags,
        tables=tables,
        provenance={"config_hash": sc.config_hash, "library_version": __version__},
    )
