"""Rational approximation preconditioners for weighted sums of fractional powers.

The pipeline: represent the scalar symbol 1/(alpha*x**s + beta*x**t), fit it
with a greedy barycentric rational approximant, convert to pole/residue form,
and apply it to a sparse pencil (A, M) through one shifted solve per pole.
The result is a symmetric preconditioner for operators such as the
closed-curve interface map mu^{-1} L^{-1/2} + K mu^{-1} L^{1/2}.
"""

from .aaa import (
    BarycentricForm,
    PartialFraction,
    PoleAudit,
    PoleExtractionError,
    aaa_fit,
    bary_eval,
    denormalize,
    eval_pf,
    fit_for_pencil,
    fit_fractional_sum,
    partial_fraction_from_dict,
    partial_fraction_to_dict,
    scale_to_interval,
    sup_error,
    to_partial_fraction,
)
from .experiments import (
    FourierInterfaceSystem,
    SweepRecord,
    build_interface_system_dense,
    complexity_study,
    interface_rhs,
    pole_sweep,
    robustness_sweep,
    solve_interface,
    summarize_records,
    write_sweep_csv,
    write_sweep_summary,
)
from .functions import (
    FractionalSumFunction,
    NormalizedFunction,
    evaluate,
    normalize,
    sample_grid,
    to_unit_interval,
)
from .krylov import (
    CurvatureBreakdownError,
    IndefinitePreconditionerError,
    SolveReport,
    minres,
    pcg,
)
from .operator import (
    FactorizationError,
    RationalOperator,
    SpdAuditReport,
    spd_audit,
)
from .pencil import (
    DenseCapExceededError,
    OperatorPencil,
    assemble_interface,
    assemble_interval,
    assemble_unit_square,
    dense_eigendecomposition,
    dense_fractional_apply,
    dense_inverse_fractional_apply,
    load_pencil,
    read_matrix,
    save_pencil,
    write_matrix,
)

__version__ = "0.1.0"
