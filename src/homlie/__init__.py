"""Exact decision procedures for Hom-Lie structures on skew algebras.

Build the Hom-Jacobi matrix of a finite-dimensional skew-symmetric algebra
from its structure constants, compute its kernel, rank and determinant
exactly over the rationals or a prime field, produce witness twisting
maps, and run seeded genericity experiments.
"""

from .algebra import (
    DEFAULT_BOUND,
    LinearMap,
    SkewAlgebra,
    make_algebra,
    random_algebra,
    random_invertible_map,
    random_linear_map,
)
from .errors import FieldMismatchError, ReductionError, ShapeError, SingularMatrixError
from .field import QQ, Field, PrimeField, Rationals, is_prime, reduce_mod
from .lab import (
    DEFAULT_PRIME,
    NamedAlgebra,
    SampleReport,
    catalog,
    generic_reduced_rank,
    genericity_experiment,
    invariance_battery,
)
from .system import (
    HomJacobiMatrix,
    KernelBasis,
    bidiagonal_support,
    build_matrix,
    determinant,
    diagonal_support,
    hom_jacobi_defect,
    is_hom_lie,
    is_in_kernel,
    kernel_basis,
    nullity,
    rank,
    restrict_columns,
    triple_count,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_BOUND",
    "DEFAULT_PRIME",
    "Field",
    "FieldMismatchError",
    "HomJacobiMatrix",
    "KernelBasis",
    "LinearMap",
    "NamedAlgebra",
    "PrimeField",
    "QQ",
    "Rationals",
    "ReductionError",
    "SampleReport",
    "ShapeError",
    "SingularMatrixError",
    "SkewAlgebra",
    "bidiagonal_support",
    "build_matrix",
    "catalog",
    "determinant",
    "diagonal_support",
    "generic_reduced_rank",
    "genericity_experiment",
    "hom_jacobi_defect",
    "invariance_battery",
    "is_hom_lie",
    "is_in_kernel",
    "is_prime",
    "kernel_basis",
    "make_algebra",
    "nullity",
    "random_algebra",
    "random_invertible_map",
    "random_linear_map",
    "rank",
    "reduce_mod",
    "restrict_columns",
    "triple_count",
]
