"""The admissibility rules every entry point shares: one space for a pair, one window for the exponents."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssflab import fractional, linalg
from ssflab.dilation import finite_schaffer_dilation, observed_trace_degree
from ssflab.errors import SchemaError, ValidationError
from ssflab.fractional import FractionalJob, resolvent_difference_identity_check
from ssflab.linalg import Contraction, Dissipative, Unitary, require_hermitian, singular_value_commute_check
from ssflab.scenario import parse_scenario
from ssflab.ssf_circle import (
    contraction_ssf,
    determinant_ssf,
    dilation_ssf,
    perturbation_determinant,
    real_ssf_conditions_report,
    unitary_ssf,
)
from ssflab.ssf_line import (
    cayley_identity_residuals,
    dissipative_condition_report,
    dissipative_ssf,
    perturbation_trace_report,
    resolvent_trace_residual,
)


def _line_ssf():
    return dissipative_ssf(1j * np.eye(1), 1j * np.eye(1), 4)


def _dilation(n, m):
    return finite_schaffer_dilation(Contraction(0.5 * np.eye(n)), m)


# entry point -> call on the n0- and n1-square members of its operator class
PAIR_ENTRY_POINTS = {
    "unitary_ssf": lambda a, b: unitary_ssf(np.eye(a), np.eye(b)),
    "contraction_ssf": lambda a, b: contraction_ssf(0.5 * np.eye(a), 0.5 * np.eye(b), 4),
    "dilation_ssf": lambda a, b: dilation_ssf(_dilation(a, 4), _dilation(b, 4)),
    "real_ssf_conditions_report": lambda a, b: real_ssf_conditions_report(
        0.5 * np.eye(a), 0.5 * np.eye(b), 0.5, 0.5, 1
    ),
    "determinant_ssf": lambda a, b: determinant_ssf(0.5 * np.eye(a), 0.5 * np.eye(b)),
    "perturbation_determinant": lambda a, b: perturbation_determinant(0.5 * np.eye(a), 0.5 * np.eye(b), 2.0),
    "dissipative_ssf": lambda a, b: dissipative_ssf(1j * np.eye(a), 1j * np.eye(b), 4),
    "resolvent_trace_residual": lambda a, b: resolvent_trace_residual(
        1j * np.eye(a), 1j * np.eye(b), _line_ssf(), -2j
    ),
    "perturbation_trace_report": lambda a, b: perturbation_trace_report(1j * np.eye(a), 1j * np.eye(b), _line_ssf()),
    "cayley_identity_residuals": lambda a, b: cayley_identity_residuals(1j * np.eye(a), 1j * np.eye(b)),
    "dissipative_condition_report": lambda a, b: dissipative_condition_report(1j * np.eye(a), 1j * np.eye(b)),
    "FractionalJob": lambda a, b: FractionalJob(
        x=0.5 * np.eye(a), y=0.25 * np.eye(b), sigma=0.5, alpha=0.5, beta=0.25
    ),
    "resolvent_difference_identity_check": lambda a, b: resolvent_difference_identity_check(
        0.5 * np.eye(a), 0.25 * np.eye(b), 1.0
    ),
    "singular_value_commute_check": lambda a, b: singular_value_commute_check(np.eye(a), 2.0 * np.eye(b)),
    "observed_trace_degree": lambda a, b: observed_trace_degree(0.5 * np.eye(a), 0.25 * np.eye(b), 4),
}


@pytest.mark.parametrize("dims", [(1, 3), (3, 1)], ids=["1x1-3x3", "3x3-1x1"])
@pytest.mark.parametrize("entry", sorted(PAIR_ENTRY_POINTS))
def test_every_pair_entry_point_refuses_two_dimensions(entry, dims):
    with pytest.raises(ValidationError):
        PAIR_ENTRY_POINTS[entry](*dims)


def test_every_pair_entry_point_names_both_dimensions():
    for entry, call in PAIR_ENTRY_POINTS.items():
        with pytest.raises(ValidationError, match=r"^dimension mismatch: .*1.* vs .*3"):
            call(1, 3)


@pytest.mark.parametrize("entry", sorted(PAIR_ENTRY_POINTS))
def test_every_pair_entry_point_runs_on_one_dimension(entry):
    PAIR_ENTRY_POINTS[entry](2, 2)


def test_dilation_ssf_refuses_two_layouts_of_one_size():
    # (n, m) = (2, 6) and (3, 4) both dilate to 12 x 12
    with pytest.raises(ValidationError, match="dimension mismatch"):
        dilation_ssf(_dilation(2, 6), _dilation(3, 4))


# ---------------------------------------------------------------------------
# the exponent window: (1/2, 1] for the real-SSF conditions, (1 - sigma, 1] for the fractional bound

_EDGE_SIGMAS = (0.0, 0.25, 0.5, 1.0)
_EDGE_ALPHAS = (0.0, 0.25, 0.5, 1.0)


@st.composite
def exponents(draw):
    """(alpha, beta, p, sigma), often with alpha + beta on an edge of a window, p = 1 or alpha = 0."""
    sigma = draw(st.sampled_from(_EDGE_SIGMAS) | st.floats(-0.5, 1.5))
    alpha = draw(st.sampled_from(_EDGE_ALPHAS) | st.floats(-0.5, 1.5))
    edge = draw(st.sampled_from((None, 0.5, 1.0 - sigma, 1.0)))
    beta = draw(st.floats(-0.5, 1.5)) if edge is None else edge - alpha
    p = draw(st.sampled_from((1.0, 2.0)) | st.floats(0.0, 4.0))
    return alpha, beta, p, sigma


def _accepts(call) -> bool:
    try:
        call()
    except ValueError:
        return False
    return True


def _scenario(kind, **exps):
    return {"name": "x", "kind": kind, "matrices": [[[0.25]], [[0.5]]], "exponents": exps}


@settings(max_examples=300, deadline=None)
@given(exps=exponents())
def test_every_entry_point_accepts_the_same_exponents(exps):
    alpha, beta, p, sigma = exps
    t = Contraction(np.zeros((2, 2)))
    x = np.diag([0.25, 0.5])
    real = _accepts(lambda: parse_scenario(_scenario("contraction_pair", alpha=alpha, beta=beta, p=p)))
    assert _accepts(lambda: real_ssf_conditions_report(t, t, alpha, beta, p)) == real
    assert real == (alpha >= 0 and beta >= 0 and p >= 1 and 0.5 < alpha + beta <= 1.0)
    fractional = _accepts(
        lambda: parse_scenario(_scenario("fractional", sigma=sigma, alpha=alpha, beta=beta, p=p))
    )
    assert _accepts(lambda: FractionalJob(x=x, y=x, sigma=sigma, alpha=alpha, beta=beta, p=p)) == fractional
    assert fractional == (
        alpha >= 0 and beta >= 0 and p >= 1 and 0.0 < sigma < 1.0 and 1.0 - sigma < alpha + beta <= 1.0
    )


@pytest.mark.parametrize(
    "kind, exps, accepted",
    [
        ("contraction_pair", {"alpha": 0.25, "beta": 0.25}, False),
        ("contraction_pair", {"alpha": 0.0, "beta": 1.0, "p": 1.0}, True),
        ("contraction_pair", {"alpha": 0.75, "beta": 0.5}, False),
        ("fractional", {"sigma": 0.5, "alpha": 0.25, "beta": 0.25}, False),
        ("fractional", {"sigma": 0.5, "alpha": 0.0, "beta": 1.0}, True),
        ("fractional", {"sigma": 0.0, "alpha": 0.5, "beta": 0.5}, False),
        ("fractional", {"sigma": 0.5, "alpha": 0.5, "beta": 0.5, "p": 0.5}, False),
    ],
)
def test_the_window_edges(kind, exps, accepted):
    if accepted:
        assert parse_scenario(_scenario(kind, **exps)).exponents["alpha"] == exps["alpha"]
    else:
        with pytest.raises(SchemaError, match="^exponents"):
            parse_scenario(_scenario(kind, **exps))


# ---------------------------------------------------------------------------
# a validator's measure that comes out NaN fails it


def _nan_eigenvalues(f, a):
    return np.full(len(a), np.nan)


def _nan_measures(monkeypatch, validator):
    if validator == "Unitary":
        # U*U overflows in its cross terms to inf - inf = NaN
        return lambda: Unitary(np.diag([1e300, 1.0, 1.0]) + 0.5)
    if validator == "Contraction":
        monkeypatch.setattr(linalg, "operator_norm", lambda a: np.nan)
        return lambda: Contraction(0.5 * np.eye(2))
    if validator == "Dissipative":
        monkeypatch.setattr(linalg, "_eig", _nan_eigenvalues)
        return lambda: Dissipative(1j * np.eye(2))
    if validator == "require_hermitian":
        return lambda: require_hermitian(np.array([[np.nan]]))
    monkeypatch.setattr(fractional, "_eig", _nan_eigenvalues)
    return lambda: FractionalJob(x=0.5 * np.eye(2), y=0.25 * np.eye(2), sigma=0.5, alpha=0.5, beta=0.25)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("validator", ["Unitary", "Contraction", "Dissipative", "require_hermitian", "FractionalJob"])
def test_a_nan_measure_fails_every_validator(monkeypatch, validator):
    with pytest.raises(ValidationError):
        _nan_measures(monkeypatch, validator)()
