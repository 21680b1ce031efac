"""One-point AG codes on maximal curves over GF(q^2), derived quantum
stabilizer parameters, and a Monte-Carlo decoding simulator."""

__version__ = "0.1.0"

from .agcode import (
    LinearCode,
    build_onepoint_code,
    check_duality_claim,
    code_report,
    dual,
    hermitian_dual,
    hermitian_inner,
    is_euclidean_self_orthogonal,
    is_hermitian_self_orthogonal,
    load_code,
    min_distance,
    save_code,
    weight_distribution,
)
from .curve import (
    CurveSpec,
    Family,
    enumerate_points,
    hermitian_curve,
    maximality_check,
    superelliptic_curve,
)
from .gf import Field, FieldError, field, quadratic_tower
from .quantum import designed_params, params_from_code, parameter_table
from .rrspace import (
    MonomialBasis,
    candidate_count,
    candidate_monomials,
    dimension_by_cases,
    verified_basis,
)
from .simulator import SimConfig, SimResult, encode, run_simulation, simulate_transmission
