"""ssf-lab: a numerical laboratory for spectral shift functions.

Finite-dimensional pairs of unitaries, contractions, and dissipative
matrices carry explicitly computable spectral shift functions. This package
constructs them three ways (eigenphase steps through block dilations, the
Cayley transform to the real line, boundary perturbation determinants),
checks the trace formulas and Schatten-norm bounds they satisfy, and ships
a scenario-driven CLI for batch verification.
"""

__version__ = "0.1.0"

from .errors import (
    BranchCut,
    DissipativityViolation,
    EigenFailure,
    IndefiniteInput,
    InvalidExponent,
    InvalidOrder,
    IoError,
    KernelViolation,
    NearSingular,
    NegativePotential,
    NonzeroWinding,
    NotHermitian,
    OnePointSpectrum,
    QuadratureDivergence,
    SchemaError,
    ValidationError,
)
from .linalg import (
    Contraction,
    Dissipative,
    PsdContraction,
    Unitary,
    analytic_poly_eval,
    cayley,
    defect_operators,
    eigenphases,
    hermitian_function,
    hermitian_power,
    hermitian_sqrt,
    inverse_cayley,
    operator_norm,
    polar_factors,
    schatten_norm,
    singular_value_commute_check,
    unitary_spectrum,
)
from .dilation import (
    FiniteDilation,
    default_block_count,
    dilation_pair,
    finite_schaffer_dilation,
    julia_block,
    observed_trace_degree,
)
from .ssf_circle import (
    SampledSSF,
    StepSSF,
    contraction_ssf,
    determinant_ssf,
    dilation_ssf,
    hardy_gauge_check,
    perturbation_determinant,
    real_ssf_conditions_report,
    sampled_trace_integral,
    ssf_trace_integral,
    step_vs_sampled_max_deviation,
    unitary_ssf,
)
from .ssf_line import (
    LineSSF,
    cayley_identity_residuals,
    dissipative_condition_report,
    dissipative_ssf,
    perturbation_trace_report,
    resolvent_trace_residual,
    weighted_abs_integral,
)
from .fractional import (
    FractionalJob,
    c_sigma,
    fractional_diff_quadrature,
    fractional_power,
    fractional_power_bound_report,
    resolvent_difference_identity_check,
)
from .schrodinger import (
    Grid1D,
    discrete_schrodinger_pair,
    green_kernel,
    kernel_trace_report,
    make_grid,
    monotone_s1_check,
    nystrom_kernel,
    potential_values,
)
from .scenario import (
    ANCHOR_REGISTRY,
    Report,
    Scenario,
    generate_scenario,
    load_scenario,
    parse_scenario,
    run_scenario,
)
from .export import plot_ssf, read_ssf_csv, write_report_json, write_ssf_csv

__all__ = [name for name in dir() if not name.startswith("_")]
