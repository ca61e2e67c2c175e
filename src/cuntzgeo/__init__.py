"""cuntzgeo: exact differential geometry on the Cuntz algebra O_3.

Normal-form arithmetic for the dense *-subalgebra, the differential calculus
induced by the rotation action, Levi-Civita connections for bilinear
pseudo-Riemannian metrics on the one-form module, and their curvature — all
over exact Gaussian-rational coefficients.
"""

from .algebra import (
    AlgElem,
    CapacityError,
    Monomial,
    get_caps,
    monomial,
    set_caps,
)
from .calculus import (
    BASIS_DIFFERENTIALS,
    OneForm,
    RepTwoForm,
    TensorElem,
    TwoForm,
    antisym_lift,
    d0,
    d1,
    derive,
    differential,
    flip,
    junk_project,
    represented_product,
    rotate,
    sym_project,
    one_form_tensor,
    tensor_product,
    wedge,
)
from .curvature import (
    CurvatureReport,
    curvature,
    curvature_operator,
    curvature_report,
    ricci,
    scalar_curvature,
)
from .exprs import (
    ParseError,
    parse_alg,
    parse_expr,
    parse_one_form,
    parse_scalar,
    print_canonical,
    print_tensor,
)
from .geometry import (
    Connection,
    Metric,
    MetricError,
    SymTensorMap,
    base_connection,
    christoffel,
    compatibility_map,
    koszul_correction,
    levi_civita,
    load_metric,
    torsion,
    unitarity_residual,
)
from .linsolve import SingularSystemError, solve_exact
from .scalars import GScalar, rational

__version__ = "0.1.0"

__all__ = [
    "AlgElem",
    "BASIS_DIFFERENTIALS",
    "CapacityError",
    "Connection",
    "CurvatureReport",
    "GScalar",
    "Metric",
    "MetricError",
    "Monomial",
    "OneForm",
    "ParseError",
    "RepTwoForm",
    "SingularSystemError",
    "SymTensorMap",
    "TensorElem",
    "TwoForm",
    "antisym_lift",
    "base_connection",
    "christoffel",
    "compatibility_map",
    "curvature",
    "curvature_operator",
    "curvature_report",
    "d0",
    "d1",
    "derive",
    "differential",
    "flip",
    "get_caps",
    "junk_project",
    "koszul_correction",
    "levi_civita",
    "load_metric",
    "monomial",
    "parse_alg",
    "parse_expr",
    "parse_one_form",
    "parse_scalar",
    "print_canonical",
    "print_tensor",
    "rational",
    "represented_product",
    "ricci",
    "rotate",
    "scalar_curvature",
    "set_caps",
    "solve_exact",
    "sym_project",
    "one_form_tensor",
    "tensor_product",
    "torsion",
    "unitarity_residual",
    "wedge",
]
