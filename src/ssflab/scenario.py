"""Scenario files: schema validation, deterministic generation, execution.

A scenario is a small JSON object naming a pair (or a potential) and the
checks to run on it. Parsing is strict: unknown keys, inadmissible exponents,
malformed matrices or a tolerance that names no check of the file raise
SchemaError before any numerics start. Parsing fixes each check's anchor and
tolerance from ANCHOR_CHECKS, the block count of a contraction pair from
its _KINDS record, and a potential kind's grid and potential values on it;
execution sizes a line kind's block count from the dilation's truncation
error and turns each check into a CheckRecord.

Complex JSON entries are [re, im] pairs. An explicit matrix is a row-major
nested list of such entries (or of reals), or an object {"shape": [n, n],
"complex128": "<base64>"} holding its row-major little-endian complex128
bytes in standard base64; generated files use the object. Random instances
are drawn from a single seeded generator per scenario so files and reruns
are bit-reproducible.
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
from dataclasses import dataclass, field
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
    _frozen,
    analytic_poly_eval,
    check_exponents,
    hermitize,
    operator_norm,
    polar_factors,
)
from .schrodinger import (
    POTENTIAL_KEYS,
    Grid1D,
    discrete_schrodinger_pair,
    full_kernel,
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
    resolvent_trace_difference,
    resolvent_trace_integral,
    resolvent_truncation_errors,
    weighted_abs_integral,
)

MATRIX_CLASSES = ("unitary", "contraction", "dissipative", "psd_contraction")

# Every report record cites exactly one of these anchors. Each row holds the anchor's check id ({j} indexes
# a family of checks), its default tolerance and a one-line statement of what the residual measures.
ANCHOR_CHECKS = {
    "circle-trace-formula": (
        "trace-poly-{j}", 1e-10, "trace(f(U1) - f(U0)) equals the boundary integral of f' against the step SSF"
    ),
    "dilation-trace-formula": (
        "trace-poly-{j}", 1e-9, "contraction-pair trace identity through the block-dilation SSF"
    ),
    "power-dilation": (
        "power-dilation", 1e-10, "compressed dilation powers reproduce contraction powers up to order m - 2"
    ),
    "defect-identity": (
        "defect-identity", 1e-12, "exact algebraic identity tying defect-square differences to the perturbation"
    ),
    "hardy-gauge": ("hardy-gauge", 1e-10, "analytic test monomials integrate to zero, so the gauge term is invisible"),
    "determinant-consistency": (
        "determinant-step-consistency", 5e-2, "calibrated determinant SSF matches the step SSF away from jumps"
    ),
    "determinant-lu-crosscheck": (
        "determinant-lu-crosscheck", 1e-8, "eigenvalue-factor determinant matches the LU perturbation determinant"
    ),
    "cayley-defect-factorization": (
        "cayley-defect-factorization", 1e-9, "squared Cayley defects factor through the imaginary part"
    ),
    "cayley-resolvent-difference": (
        "cayley-resolvent-difference", 1e-9, "Cayley-image difference equals the scaled resolvent difference"
    ),
    "line-resolvent-trace": ("resolvent-z{j}", 1e-6, "resolvent trace difference equals the line-SSF sum"),
    "weighted-integral-consistency": (
        "weighted-consistency", 1e-12, "weighted line integral equals half the circle integral"
    ),
    "fractional-power-bound": (
        "fractional-bound", 1e-10, "fractional-power difference norm obeys the weighted two-term bound"
    ),
    "fractional-quadrature": (
        "fractional-quadrature", 1e-6, "integral-representation quadrature matches the eigendecomposition"
    ),
    "resolvent-difference-identity": ("resolvent-identity", 1e-11, "exact two-sided resolvent difference identity"),
    "lattice-dissipativity": (
        "lattice-dissipativity", 1e-10, "discrete pair keeps its imaginary part at or above the identity"
    ),
    "schrodinger-resolvent": ("resolvent-z{j}", 1e-5, "lattice-pair resolvent trace formula through the line SSF"),
    "kernel-trace-identity": ("kernel-trace-identity", 1e-10, "PSD kernel trace equals its trace norm"),
    "kernel-positivity": ("kernel-positivity", 1e-10, "kernel matrix stays PSD up to roundoff"),
    "kernel-half-l1": ("kernel-half-l1", 1e-4, "kernel trace matches half the potential's L1 mass"),
    "monotone-trace-ladder": (
        "monotone-ladder", 1e-10, "monotone potential ladder converges in trace norm at rate 1/n"
    ),
    "numeric-completion": (
        "numeric-completion", 0.0, "the scenario's numerics ran to the end without a numeric exception"
    ),
}
ANCHOR_REGISTRY = {anchor: statement for anchor, (_, _, statement) in ANCHOR_CHECKS.items()}
ANCHORS = frozenset(ANCHOR_REGISTRY)

# A line kind's file without a dilation_order takes the least m in [3, LINE_BLOCKS] whose exact truncation
# error is at most 1/TRUNCATION_MARGIN of every resolvent record's effective tolerance, else LINE_BLOCKS.
LINE_BLOCKS = 24
TRUNCATION_MARGIN = 100


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


# the keys of a matrix given as complex128 bytes
_BYTES_KEYS = ("complex128", "shape")


def _matrix_bytes(v: dict, where: str) -> np.ndarray:
    """A {"shape": [n, n], "complex128": base64} object as the finite n-square array it owns.

    The byte count is checked on the base64 text, in Python ints, before
    anything is decoded or allocated.
    """
    if sorted(v) != list(_BYTES_KEYS):
        _fail(where, f"a matrix object holds exactly the keys {list(_BYTES_KEYS)}, not {sorted(v)}")
    shape, text = v["shape"], v["complex128"]
    square = type(shape) is list and len(shape) == 2 and shape[0] == shape[1]
    if not square or any(type(k) is not int or k < 1 for k in shape):
        _fail(f"{where}.shape", "expected [n, n] with n a positive integer")
    if not isinstance(text, str):
        _fail(f"{where}.complex128", "expected a base64 string")
    size = 16 * shape[0] ** 2
    if len(text) != 4 * -(-size // 3):
        _fail(f"{where}.complex128", f"expected {size} bytes of complex128, {4 * -(-size // 3)} base64 characters")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:
        _fail(f"{where}.complex128", f"not standard padded base64 ({exc})")
    if len(raw) != size:
        _fail(f"{where}.complex128", f"expected {size} bytes of complex128, got {len(raw)}")
    out = np.frombuffer(raw, "<c16").reshape(shape).astype(np.complex128)
    if not np.all(np.isfinite(out)):
        _fail(where, "matrix entries must be finite")
    return out


def _matrix_entry(v, where: str) -> np.ndarray:
    """An explicit matrix, in bytes form or as a square nested list of real or [re, im] cells,
    which is converted cell by cell so that a bad cell is named."""
    if isinstance(v, dict) and not v.keys().isdisjoint(_BYTES_KEYS):
        return _matrix_bytes(v, where)
    if not isinstance(v, list) or not v:
        _fail(where, "expected a nonempty nested array")
    n = len(v)
    out = np.zeros((n, n), dtype=np.complex128)
    for i, row in enumerate(v):
        if not isinstance(row, list) or len(row) != n:
            _fail(where, f"row {i} does not make the matrix square")
        for j, cell in enumerate(row):
            out[i, j] = _complex_entry(cell, f"{where}[{i}][{j}]")
    return out


def _check_keys(d: dict, allowed: set, where: str):
    unknown = sorted(set(d) - allowed)
    if unknown:
        _fail(where, f"unknown keys {unknown}; allowed: {sorted(allowed)}")


def _object(raw, where: str, defaults: dict) -> dict:
    """The defaults overlaid by the file's object (None reads as {}); their keys are its allowed keys."""
    if not isinstance(raw, (dict, type(None))):
        _fail(where, "expected an object")
    _check_keys(raw or {}, set(defaults), where)
    return {**defaults, **(raw or {})}


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
    # psd_contraction: _random_pair refuses every class outside MATRIX_CLASSES
    u = polar_factors(g).partial_isometry
    return hermitize((u * rng.uniform(0.05, 0.95, dim)) @ u.conj().T)


def _random_pair(raw: dict, default_class: str, where: str) -> tuple[np.ndarray, np.ndarray]:
    spec = _object(raw, where, {"seed": 0, "dim": 4, "class": default_class, "allow_boundary": False})
    seed = _int_entry(spec["seed"], f"{where}.seed", 0, 2**63 - 1)
    dim = _int_entry(spec["dim"], f"{where}.dim", 1, 128)
    klass, allow_boundary = spec["class"], spec["allow_boundary"]
    if klass not in MATRIX_CLASSES:
        _fail(f"{where}.class", f"must be one of {MATRIX_CLASSES}")
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


def _parse_potential(raw, grid: Grid1D, where: str = "potential") -> np.ndarray:
    """The potential's values on the grid's points, as a read-only complex128 array."""
    raw = {"kind": "gaussian"} if raw is None else raw
    if not isinstance(raw, dict):
        _fail(where, "expected a descriptor object")
    kind = raw.get("kind")
    if not isinstance(kind, str) or kind not in POTENTIAL_KEYS:
        _fail(where, f"unknown potential kind {kind!r}")
    desc = _object(raw, where, {"kind": kind, **POTENTIAL_KEYS[kind]})
    if kind == "table":
        xs, qs = desc["x"], desc["q"]
        if not (isinstance(xs, list) and isinstance(qs, list) and len(xs) == len(qs) and xs):
            _fail(where, "table needs equal-length nonempty x and q lists")
    # the keys the file gave, in POTENTIAL_KEYS order: a table's are lists of entries
    for key in (k for k in POTENTIAL_KEYS[kind] if k in raw):
        entry, at = _complex_entry if key in ("amplitude", "q") else _float_entry, f"{where}.{key}"
        desc[key] = [entry(v, f"{at}[{i}]") for i, v in enumerate(raw[key])] if kind == "table" else entry(raw[key], at)
    try:
        return _frozen(np.asarray(potential_values(desc, grid.points), dtype=np.complex128))
    except ValueError as exc:
        _fail(where, str(exc))


def _parse_grid(raw, defaults: dict) -> Grid1D:
    """make_grid's grid over the kind's defaults: of the scheme they or the file name, else trapezoid."""
    out = _object(raw, "grid", defaults)
    lo, hi = (_float_entry(out[key], f"grid.{key}") for key in ("lo", "hi"))
    nodes = _int_entry(out["nodes"], "grid.nodes", 2, 4096)
    try:
        return make_grid(lo, hi, nodes, scheme=out.get("scheme", "trapezoid"))
    except ValidationError as exc:
        _fail("grid", str(exc))


def _parse_exponents(raw, defaults: dict) -> dict:
    """The exponents over the kind's defaults; their keys are the allowed exponent keys."""
    out = {key: _float_entry(v, f"exponents.{key}") for key, v in _object(raw, "exponents", defaults).items()}
    try:
        check_exponents(**out)
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
    out = _object(raw, "determinant", {"radius": 1.0 + 1e-4, "grid": 4096})
    radius = _float_entry(out["radius"], "determinant.radius")
    if radius <= 1.0 + 1e-8:
        _fail("determinant.radius", "must exceed 1 + 1e-8")
    grid = _int_entry(out["grid"], "determinant.grid", 256, 1 << 16)
    return {"radius": radius, "grid": grid}


def _parse_monotone(raw) -> Optional[dict]:
    if raw is None:
        return None
    out = _object(raw, "monotone", {"n": None, "variant": "scale", "level": 0.01})  # n is required
    ns = out["n"]
    if not isinstance(ns, list) or not ns or len(ns) > 16:
        _fail("monotone.n", "expected a list of 1 to 16 integers")
    ns = [_int_entry(v, f"monotone.n[{i}]", 1, 1 << 20) for i, v in enumerate(ns)]
    if any(b <= a for a, b in zip(ns, ns[1:])):
        _fail("monotone.n", "must be strictly increasing")
    variant = out["variant"]
    if variant not in ("scale", "truncate"):
        _fail("monotone.variant", "must be 'scale' or 'truncate'")
    level = _float_entry(out["level"], "monotone.level")
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
    dilation_order: Optional[int]  # the file's block count m, else a contraction pair's rule; None: sized in the run
    test_polynomials: tuple[tuple[complex, ...], ...]
    determinant: Optional[dict]
    z_values: tuple[complex, ...]
    exponents: dict
    quadrature_nodes: int
    grid: Optional[Grid1D]
    potential: Optional[np.ndarray]  # the potential's values on grid.points
    spectral_point: float
    monotone: Optional[dict]
    checks: dict  # check id -> (anchor, tolerance) of every check the file makes, in record order
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

    matrices = None if spec.matrix_class is None else _parse_matrices(data, kind)

    order = _int_entry(data["dilation_order"], "dilation_order", 3, 64) if "dilation_order" in data else None
    polys = _parse_polynomials(data.get("test_polynomials"), spec.degree)

    spectral_point = -1.0
    if "spectral_point" in data:
        spectral_point = _float_entry(data["spectral_point"], "spectral_point")
        if spectral_point >= -1e-12:
            _fail("spectral_point", "must be strictly negative (below the branch cut)")

    determinant = _parse_determinant(data.get("determinant"))
    grid = None if spec.grid is None else _parse_grid(data.get("grid"), spec.grid)
    z_values = _parse_z_values(data.get("z_values"))
    monotone = _parse_monotone(data.get("monotone"))
    # the records of each check id: one per index of a family, none of an optional check not asked for
    counts = {
        "trace-poly-{j}": len(polys),
        "resolvent-z{j}": len(z_values),
        "determinant-step-consistency": determinant is not None,
        "determinant-lu-crosscheck": determinant is not None,
        # the half-L1 target holds at the spectral point -1 only
        "kernel-half-l1": abs(spectral_point + 1.0) < 1e-12,
        "monotone-ladder": monotone is not None,
    }
    checks = {}
    for anchor in (*spec.anchors, "numeric-completion"):
        check_id, tol, _ = ANCHOR_CHECKS[anchor]
        checks.update((check_id.format(j=j), (anchor, tol)) for j in range(counts.get(check_id, 1)))

    tol_raw = data.get("tolerances", {})
    if not isinstance(tol_raw, dict):
        _fail("tolerances", "expected an object of check_id to tolerance")
    for key, v in tol_raw.items():
        t = _float_entry(v, f"tolerances.{key}")
        if t <= 0:
            _fail(f"tolerances.{key}", "must be positive")
        if key not in checks:
            _fail(f"tolerances.{key}", f"names no check of this file; its checks are {list(checks)}")
        checks[key] = (checks[key][0], t)

    return Scenario(
        name=name.strip(),
        kind=kind,
        matrices=matrices,
        dilation_order=order or (None if spec.blocks is None else spec.blocks(polys)),
        test_polynomials=polys,
        determinant=determinant,
        z_values=z_values,
        exponents=_parse_exponents(data.get("exponents"), spec.exponents),
        quadrature_nodes=_int_entry(data.get("quadrature_nodes", 200), "quadrature_nodes", 32, 2000),
        grid=grid,
        potential=None if grid is None else _parse_potential(data.get("potential"), grid),
        spectral_point=spectral_point,
        monotone=monotone,
        checks=checks,
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


def _matrix_to_json(m: np.ndarray) -> dict:
    """The matrix as the object _matrix_bytes reads: its exact bits, in a quarter of the decimal text."""
    data = base64.b64encode(np.ascontiguousarray(m, dtype="<c16").tobytes()).decode("ascii")
    return {"shape": list(m.shape), "complex128": data}


def generate_scenario(kind: str, seed: int, dim: int) -> dict:
    """Deterministic scenario dict for (kind, seed, dim); see the generator
    recipes in _draw_matrix. The file embeds explicit matrices, as complex128
    bytes, so reruns and re-generations are byte-identical."""
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
    if spec.blocks is not None:
        payload["dilation_order"] = spec.blocks(_parse_polynomials(None, spec.degree))
    return payload


def _line_keys(rng: np.random.Generator, dim: int) -> dict:
    return {"z_values": [[0.0, -2.0]]}


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
    residual: Optional[float]  # None: the check could not run
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.residual is not None and self.residual <= self.tolerance


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


class _Records(list):
    """The records of one run; calling it records a check at its parsed tolerance times the run's scale."""

    def __init__(self, checks: dict, scale: float):
        super().__init__()
        self.checks, self.scale = checks, scale

    def tolerance(self, check_id: str) -> float:
        return float(self.checks[check_id][1]) * float(self.scale)

    def __call__(self, check_id, lhs, rhs, residual=_AUTO):
        if residual is _AUTO:
            residual = abs(complex(lhs) - complex(rhs))
        elif residual is not None:
            residual = float(residual)
        anchor = self.checks[check_id][0]
        self.append(CheckRecord(str(check_id), anchor, complex(lhs), complex(rhs), residual, self.tolerance(check_id)))


def _fields(rep, *drop) -> dict:
    """A report record's fields as flags, without the named ones."""
    return {k: v for k, v in vars(rep).items() if k not in drop}


def _run_unitary_pair(sc: Scenario, record: Callable) -> tuple[dict, dict]:
    u0, u1 = (Unitary(m) for m in sc.matrices)
    return _circle_pair_checks(sc, record, unitary_ssf(u0, u1), {}, (u0, u1))


def _circle_pair_checks(sc, record, ssf, flags, operands):
    """Trace-formula, Hardy-gauge and determinant checks of a circle-kind pair; the determinant
    route reads the eigenvalues of the operands, a `Unitary`'s the ones its step SSF used."""
    m0, m1 = sc.matrices
    for j, coeffs in enumerate(sc.test_polynomials):
        lhs = np.trace(analytic_poly_eval(m1, coeffs)) - np.trace(analytic_poly_eval(m0, coeffs))
        record(f"trace-poly-{j}", lhs, ssf_trace_integral(ssf, coeffs))
    record("hardy-gauge", hardy_gauge_check(1, sc.test_polynomials[0]), 0.0)
    flags = {"gauge": ssf.gauge, "jump_count": len(ssf.jumps), **flags}
    tables = {"circle_step": ssf}
    _determinant_block(sc, record, operands, ssf, flags, tables)
    return flags, tables


def _determinant_block(sc, record, operands, step_ssf, flags, tables):
    """Step-consistency and LU checks of the determinant route. Each gap is nonnegative and
    so its own residual; a check that could not run records residual None."""
    if "determinant-lu-crosscheck" not in sc.checks:
        return
    deviation = lu_gap = None
    try:
        sampled = determinant_ssf(*operands, radius=sc.determinant["radius"], grid=sc.determinant["grid"])
        # independent LU evaluation at theta = (k + 1/2) 2pi / 8 on the sampling circle
        probes = sampled.radius * np.exp(2j * np.pi * (np.arange(8) + 0.5) / 8)
        lu = perturbation_determinant(*operands, probes).tolist()
        lu_gap = max(abs(sampled.determinant(z) / d - 1) for z, d in zip(probes, lu))
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
    record("determinant-step-consistency", deviation or 0.0, 0.0, residual=deviation)
    record("determinant-lu-crosscheck", lu_gap or 0.0, 0.0, residual=lu_gap)


def _run_contraction_pair(sc: Scenario, record: Callable) -> tuple[dict, dict]:
    m0, m1 = sc.matrices
    t0, t1 = Contraction(m0), Contraction(m1)
    d0, d1 = dilation_pair(t0, t1, sc.dilation_order)
    worst = 0.0
    for dil, base in ((d0, m0), (d1, m1)):
        power = base
        for corner in dil.compressed_powers(sc.dilation_order - 2):
            worst = max(worst, operator_norm(corner - power))
            power = power @ base
    record("power-dilation", worst, 0.0)
    conditions = real_ssf_conditions_report(
        t0, t1, sc.exponents["alpha"], sc.exponents["beta"], sc.exponents["p"]
    )
    record("defect-identity", conditions.identity_residual, 0.0)
    flags = {"block_count": sc.dilation_order, **_fields(conditions, "alpha", "beta", "p", "identity_residual")}
    ssf = dilation_ssf(d0, d1)
    return _circle_pair_checks(sc, record, ssf, flags, (t0, t1))


def _line_pair_checks(sc, record, l0, l1):
    """Line SSF, resolvent and weighted checks of a dissipative pair: (flags, tables).

    The block count is the file's, or the least candidate whose truncation
    error sits TRUNCATION_MARGIN times under each resolvent record's
    effective tolerance (LINE_BLOCKS when none does). That error is a
    property of the dilation, known before the eigensolve; the records still
    compare the computed phases with the resolvent of L.
    """
    lhs = [resolvent_trace_difference(l0.m, l1.m, z) for z in sc.z_values]
    blocks = np.arange(3, LINE_BLOCKS + 1) if sc.dilation_order is None else np.array([sc.dilation_order])
    errors = np.abs([resolvent_truncation_errors(l0, l1, z, s, blocks) for z, s in zip(sc.z_values, lhs)])
    limits = np.array([[record.tolerance(f"resolvent-z{j}") / TRUNCATION_MARGIN] for j in range(len(lhs))])
    fits = np.all(errors <= limits, axis=0)
    k = int(np.argmax(fits)) if fits.any() else len(blocks) - 1
    m = int(blocks[k])
    ssf = dissipative_ssf(l0, l1, m)
    for j, z in enumerate(sc.z_values):
        record(f"resolvent-z{j}", lhs[j], resolvent_trace_integral(ssf, z))
    record("weighted-consistency", weighted_abs_integral(ssf, side="line"), weighted_abs_integral(ssf, side="circle"))
    flags = {
        "block_count": m,
        "truncation_estimate": [float(e) for e in errors[:, k]],
        "jump_count": len(ssf.breakpoints),
        "mass_at_infinity": ssf.mass_at_infinity,
        **_fields(perturbation_trace_report(l0, l1, ssf)),
    }
    return flags, {"line_step": ssf}


def _run_dissipative_pair(sc: Scenario, record: Callable) -> tuple[dict, dict]:
    l0, l1 = (Dissipative(m) for m in sc.matrices)
    idents = cayley_identity_residuals(l0, l1)
    defect = max(max(idents.defect_sq_residuals), max(idents.adjoint_defect_sq_residuals))
    record("cayley-defect-factorization", defect, 0.0)
    record("cayley-resolvent-difference", idents.resolvent_difference_residual, 0.0)
    flags, tables = _line_pair_checks(sc, record, l0, l1)
    try:
        flags["condition_report"] = _fields(dissipative_condition_report(l0, l1, p=sc.exponents["p"]))
    except ArithmeticError as exc:
        flags["condition_report"] = f"{type(exc).__name__}: {exc}"
    return flags, tables


def _run_fractional(sc: Scenario, record: Callable) -> tuple[dict, dict]:
    x, y = sc.matrices
    e = sc.exponents
    job = FractionalJob(x=x, y=y, sigma=e["sigma"], alpha=e["alpha"], beta=e["beta"], p=e["p"])
    bound_rep = fractional_power_bound_report(job)
    record("fractional-bound", bound_rep.lhs, bound_rep.bound, residual=max(0.0, bound_rep.lhs - bound_rep.bound))
    exact = fractional_power(job.y, job.sigma) - fractional_power(job.x, job.sigma)
    quad = fractional_diff_quadrature(job, nodes=sc.quadrature_nodes)
    rel = float(np.linalg.norm(quad - exact) / max(np.linalg.norm(exact), 1e-12))
    record("fractional-quadrature", rel, 0.0)
    worst = max(resolvent_difference_identity_check(job.x, job.y, t) for t in (0.01, 1.0, 100.0))
    record("resolvent-identity", worst, 0.0)
    return {**_fields(bound_rep, "holds"), "min_eig": job.min_eig}, {}


def _run_schrodinger(sc: Scenario, record: Callable) -> tuple[dict, dict]:
    x = sc.grid.points
    l0, l1 = discrete_schrodinger_pair(sc.potential, float(x[1] - x[0]))
    record("lattice-dissipativity", l0.imag_min, 1.0, residual=max(0.0, 1.0 - l0.imag_min))
    flags, tables = _line_pair_checks(sc, record, l0, l1)
    del flags["left_tail"], flags["right_tail"]
    flags["nodes"] = sc.grid.n
    return flags, tables


def _run_kernel_trace(sc: Scenario, record: Callable) -> tuple[dict, dict]:
    grid = sc.grid
    full = full_kernel(sc.potential, grid, sc.spectral_point)
    rep = kernel_trace_report(sc.potential, grid, z=sc.spectral_point, full=full)
    record("kernel-trace-identity", rep.trace, rep.trace_norm)
    record("kernel-positivity", rep.min_eigenvalue, 0.0, residual=max(0.0, -rep.min_eigenvalue))
    if "kernel-half-l1" in sc.checks:
        record("kernel-half-l1", rep.trace, rep.half_l1_target)
    flags = {**_fields(rep), "spectral_point": sc.spectral_point}
    if "monotone-ladder" in sc.checks:
        mon = monotone_s1_check(
            sc.potential,
            grid,
            sc.monotone["n"],
            variant=sc.monotone["variant"],
            level=sc.monotone["level"],
            # the ladder runs at z = -1, so it shares the full kernel of that spectral point only
            full=full if sc.spectral_point == -1.0 else None,
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
        record("monotone-ladder", worst, 0.0)
        flags["monotone"] = {**_fields(mon, "n_values"), "n": mon.n_values}
    return flags, {}


@dataclass(frozen=True)
class _Kind:
    """What one scenario kind decides. The runner looks its numerics up by name as it runs."""

    run: Callable[[Scenario, Callable], tuple[dict, dict]]  # (sc, record) -> (flags, tables)
    keys: frozenset  # top-level keys beyond name, kind, outputs and tolerances
    anchors: tuple[str, ...]  # the anchors its records cite, in record order
    matrix_class: Optional[str]  # class of a random pair; None for the potential kinds
    generated: Callable[..., dict] = lambda rng, dim: {}  # (rng, dim) -> its keys in a generated file
    outputs: tuple[str, ...] = ("json", "csv", "svg")  # outputs a generated file asks for
    grid: Optional[dict] = None  # grid defaults; their keys are the allowed grid keys
    degree: int = 3  # the default test polynomials are the monomials z, ..., z^degree
    blocks: Optional[Callable[[tuple], int]] = None  # test polynomials -> block count m; None: none at parse time
    exponents: dict = field(default_factory=lambda: {"alpha": 0.5, "beta": 0.5, "p": 1.0})  # exponent defaults


_CIRCLE_ANCHORS = ("hardy-gauge", "determinant-consistency", "determinant-lu-crosscheck")  # after a trace formula
_KINDS = {
    "unitary_pair": _Kind(
        _run_unitary_pair,
        frozenset({"matrices", "test_polynomials", "determinant"}),
        ("circle-trace-formula", *_CIRCLE_ANCHORS),
        "unitary",
        degree=4,
    ),
    "contraction_pair": _Kind(
        _run_contraction_pair,
        frozenset({"matrices", "test_polynomials", "determinant", "dilation_order", "exponents"}),
        ("power-dilation", "defect-identity", "dilation-trace-formula", *_CIRCLE_ANCHORS),
        "contraction",
        blocks=lambda polys: default_block_count(max(len(c) - 1 for c in polys)),
    ),
    "dissipative_pair": _Kind(
        _run_dissipative_pair,
        frozenset({"matrices", "dilation_order", "z_values"}),
        ("cayley-defect-factorization", "cayley-resolvent-difference", "line-resolvent-trace")
        + ("weighted-integral-consistency",),
        "dissipative",
        _line_keys,
    ),
    "fractional": _Kind(
        _run_fractional,
        frozenset({"matrices", "exponents", "quadrature_nodes"}),
        ("fractional-power-bound", "fractional-quadrature", "resolvent-difference-identity"),
        "psd_contraction",
        lambda rng, dim: {"exponents": dict(_KINDS["fractional"].exponents)},
        outputs=("json",),
        exponents={"sigma": 0.5, "alpha": 0.5, "beta": 0.25, "p": 1.0},
    ),
    "schrodinger": _Kind(
        _run_schrodinger,
        frozenset({"grid", "potential", "dilation_order", "z_values"}),
        ("lattice-dissipativity", "schrodinger-resolvent", "weighted-integral-consistency"),
        None,
        _schrodinger_keys,
        grid={"lo": -8.0, "hi": 8.0, "nodes": 64},
    ),
    "kernel_trace": _Kind(
        _run_kernel_trace,
        frozenset({"grid", "potential", "spectral_point", "monotone"}),
        ("kernel-trace-identity", "kernel-positivity", "kernel-half-l1", "monotone-trace-ladder"),
        None,
        _kernel_trace_keys,
        outputs=("json",),
        grid={"lo": -8.0, "hi": 8.0, "nodes": 1024, "scheme": "gauss"},
    ),
}
KINDS = tuple(_KINDS)


def _non_finite_flag(value, path: str) -> Optional[str]:
    """The path of the first float or complex part of a flag value that is not finite, else None."""
    if isinstance(value, (float, complex, np.inexact)):
        return None if np.isfinite(value) else path
    if isinstance(value, (dict, list, tuple)):
        items = value.items() if isinstance(value, dict) else enumerate(value)
        return next(filter(None, (_non_finite_flag(v, f"{path}.{k}") for k, v in items)), None)
    return None


def run_scenario(sc: Scenario, tolerance_scale: float = 1.0) -> Report:
    """Execute the checks of sc.checks, each at its tolerance times tolerance_scale.

    Data problems that surface during execution (a matrix failing its class
    validation, an inadmissible potential) are reported as SchemaError: the
    file was wrong, not the numerics. Numeric check failures never raise;
    they become failing records. A numeric exception (an ArithmeticError, a
    LinAlgError from LAPACK, or a MemoryError at a size the schema admits)
    ends the run with the records made so far plus a failing
    numeric-completion record, with the error text in the flags; a flag that
    is not finite adds that record after the others.
    """
    if not isinstance(tolerance_scale, (int, float)) or not 0 < tolerance_scale < math.inf:
        raise SchemaError("tolerance_scale must be a positive finite number")
    record = _Records(sc.checks, tolerance_scale)
    try:
        flags, tables = _KINDS[sc.kind].run(sc, record)
        if bad := _non_finite_flag(flags, "flags"):
            flags["numeric_error"] = f"not finite: {bad}"
    except SchemaError:
        raise
    except (ArithmeticError, MemoryError, np.linalg.LinAlgError) as exc:
        flags, tables = {"numeric_error": f"{type(exc).__name__}: {exc}"}, {}
    except ValueError as exc:
        raise SchemaError(f"scenario {sc.name!r}: {exc}") from exc
    if "numeric_error" in flags:
        record("numeric-completion", 0.0, 0.0, residual=None)
    return Report(
        scenario=sc.name,
        kind=sc.kind,
        records=tuple(record),
        flags=flags,
        tables=tables,
        provenance={"config_hash": sc.config_hash, "library_version": __version__},
    )
