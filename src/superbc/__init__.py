"""Exact computer algebra for hook-partition combinatorics, super Jack
polynomials, the ring of even supersymmetric polynomials, and type BC
supersymmetric interpolation polynomials at the specialized parameters
k = -1, h = q - p + 1/2."""

from superbc.partitions import (
    HookParams,
    NotAHook,
    Partition,
    UsageError,
    enumerate_hooks,
    lambda_natural,
    partitions_of,
)
from superbc.exactalg import (
    THETA,
    LinearSolveOutcome,
    PoleError,
    RatFunc,
    SparsePoly,
    VariableMismatch,
    scalar_eval,
    solve_exact,
)
from superbc.symmfunc import (
    DegenerateParameter,
    SymFun,
    basis_convert,
    jack_P,
    jack_inner,
    monomial_expand,
)
from superbc.superpoly import (
    ZeroTheta,
    is_even_supersymmetric,
    is_supersymmetric,
    phi_theta,
    res_map,
    squared_substitution,
    super_jack,
)
from superbc.interpbc import (
    DegenerateNormalization,
    GridPoint,
    InconsistentSystem,
    InterpolationResult,
    VerifySpec,
    c_factor,
    constants_ledger,
    d_mu,
    derive_k,
    expansion_identity,
    grid_point,
    interpolation_J,
    k_mu,
    shimura_image,
    verify_properties,
    weyl_vectors,
)

__version__ = "0.1.0"
