"""ADHM instantons on the Euclidean plane and its two twisted deformations.

A symbolic engine for noncommutative *-polynomials with normal ordering,
the two symmetry models (translations and a rotation torus) that derive the
deformed relation systems from their twisting cocycles, symbolic twistor
checks, the (deformed) monad identities, a numerical ADHM solver with
moduli-dimension analysis, and the classical instanton pipeline (projector,
anti-self-duality, topological charge).
"""

__version__ = "1.0.0"

from ._report import Check, Report
from .star_algebra import (
    AUX, C4, CP3, HOPF_TORUS, HOPF_TRANS, MONAD_M, R4, S4, Coefficient,
    GeneratorId, NCPolynomial, RelationSystem, MissingCalculus, NonConfluent,
    NonTerminating, StarAlgebraError, UnknownGenerator, adjoint, differential,
    multiply, normal_form, reduce_modulo,
)
from .hopf_twist import (
    ClassicalModel, MissingCoaction, ModelMismatch, MoyalModel, ToricModel,
    TorusMonomial, TransMonomial, TwistModel, derive_relations,
    model_from_json, r_matrix, smash_relations, twist_product,
)
from .twistor import (
    QuotientContext, apply_J, j_squared_residual, verify_embeddings,
)
from .monad import (
    ADHMData, MonadMatrices, PolyMatrix, ShapeError, adhm_residual,
    bosonise_monad, build_monad, monad_residual, tilde_subalgebra_check,
)
from .adhm_solver import (
    JacobianAnalysis, NoConvergence, NotASolution, SolveConfig,
    gauge_distance, moduli_dimension, solve,
)
from .instanton import (
    ConnectionSample, PointR4, QuadratureBudgetExceeded, SingularRho, charge,
    curvature_asd, curvature_samples, evaluate_projector,
    finite_difference_curvature, quadrature_nodes, symbolic_projector_checks,
)
