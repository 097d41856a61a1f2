"""EM fixed points and nonnegative-rank-3 boundaries for mixture models.

Subpackages by concern:

* :mod:`nnmix.exactla`: dual-backend (rational/float) dense linear algebra;
* :mod:`nnmix.defaults`: the EM defaults, shared with the CLI and the
  experiment config;
* :mod:`nnmix.em`: the EM iteration, likelihood, gradient, criticality;
* :mod:`nnmix.rank3cert`: exact nonnegative-rank-3 membership, brackets,
  constructive factorization;
* :mod:`nnmix.rank3batch`: the witness scan's float64 orientation batch;
* :mod:`nnmix.boundary`: topological-boundary classification, stratum
  counts and patterns, stratum sampling;
* :mod:`nnmix.families`: closed-form parametric families and their
  maximizers;
* :mod:`nnmix.harness`: seeded Monte-Carlo experiments;
* :mod:`nnmix.cli`: the command-line front end.

``import nnmix`` does not load numpy.  Only :mod:`nnmix.em` and the witness
scan's orientation batch (:mod:`nnmix.rank3batch`) import it at module
level; the other modules import it inside the functions that compute with
it.  The names exported from :mod:`nnmix.em` resolve on first access
(PEP 562), which imports that module.
"""

from .exactla import Matrix, determinant, matrix_rank, parse_matrix, rank_factorize
from .rank3cert import (MembershipDecision, Witness, bracket3, meet_join,
                        nnrank3_membership, nonneg_rank3_factorize, six_three)
from .boundary import (BoundaryClassification, ZeroPattern, boundary_test,
                       component_count, enumerate_zero_patterns,
                       sample_algebraic_boundary)
from .families import (greencurve_matrix, rectangle_family, rectangle_in_model,
                       uab_closed_form_mle, uab_in_model, uab_matrix)

__version__ = "0.1.0"

__all__ = [
    "Matrix", "determinant", "matrix_rank", "parse_matrix", "rank_factorize",
    "DataMatrix", "EMResult", "ParameterTriple", "fixed_point_residual",
    "gradient_matrix", "is_critical", "log_likelihood", "model_dimension",
    "parameter_dimension", "run_em", "run_em_restarts",
    "MembershipDecision", "Witness", "bracket3", "meet_join",
    "nnrank3_membership", "nonneg_rank3_factorize", "six_three",
    "BoundaryClassification", "ZeroPattern", "boundary_test",
    "component_count", "enumerate_zero_patterns", "sample_algebraic_boundary",
    "greencurve_matrix", "rectangle_family", "rectangle_in_model",
    "uab_closed_form_mle", "uab_in_model", "uab_matrix",
]


def __getattr__(name: str):
    # the names of __all__ that are not bound above are nnmix.em's
    if name in __all__:
        from . import em
        return getattr(em, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
