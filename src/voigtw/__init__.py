"""Double-precision Voigt / complex error function w(z) = K + iL for
small imaginary argument y <= 0.1.

The evaluator splits the plane at the computing boundary z_c(y): inside,
a Taylor expansion of L in y whose coefficients fold exact integer tables
with powers of y; outside, the Laplace continued fraction.  A
multiprecision oracle (`voigtw.oracle`) backs all accuracy testing and
never participates in production evaluation.
"""

from .coeffs import CoeffTables, build_pq_tables, get_tables, hermite_coeffs, p_closed_form
from .dawson import dawson_cf
from .laplace import external_depth, laplace_w
from .scheme import boundary_z_c, eval_w, eval_w_batch, select_params
from .taylor import (
    SeriesParams,
    VoigtValue,
    YCoefficientSet,
    build_y_coefficients,
    eval_w_internal,
)

__version__ = "1.0.0"

__all__ = [
    "CoeffTables",
    "SeriesParams",
    "VoigtValue",
    "YCoefficientSet",
    "boundary_z_c",
    "build_pq_tables",
    "build_y_coefficients",
    "dawson_cf",
    "eval_w",
    "eval_w_batch",
    "eval_w_internal",
    "external_depth",
    "get_tables",
    "hermite_coeffs",
    "laplace_w",
    "p_closed_form",
    "select_params",
]
