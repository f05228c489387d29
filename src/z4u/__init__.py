"""Linear codes over the 16-element ring Z4+uZ4.

Exact arithmetic for the ring and its scalar companions, one ring-generic
code core (`LinearCode(gen, ring=R | Z4 | F2U)`), the Gray map to Z4, complete/symmetrized/Lee weight enumerators with their MacWilliams
transforms, projections to Z4 and F2+uF2 with lift distance bounds, and
double-circulant style constructions of formally self-dual codes with a
minimum-distance search harness.
"""

from .code import (DEFAULT_BUDGET, DistanceResult, LinearCode,
                   SelfDuality, dual_of_standard_form, inner)
from .construct import (BorderSpec, CirculantSpec, bordered_code,
                        double_circulant_code, search, symmetric_code,
                        verify_tables)
from .gray import gray_image, gray_map, gray_map_inverse
from .project import (LiftTriple, lift_bound_check, project_constant,
                      project_mod2, project_u_coeff, self_dual_image_report)
from .ring import F2U, R, Z4, RingTable
from .wenum import (CWE, SWE, LeePoly, cwe, cwe_to_swe, is_formally_self_dual,
                    lee, macwilliams_cwe_eval, macwilliams_lee, macwilliams_swe,
                    swe, swe_to_lee)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_BUDGET", "DistanceResult",
    "LinearCode", "SelfDuality", "dual_of_standard_form", "inner",
    "BorderSpec", "CirculantSpec", "bordered_code", "double_circulant_code",
    "search", "symmetric_code", "verify_tables",
    "gray_image", "gray_map", "gray_map_inverse",
    "LiftTriple", "lift_bound_check", "project_constant",
    "project_mod2", "project_u_coeff", "self_dual_image_report",
    "CWE", "SWE", "LeePoly", "cwe", "cwe_to_swe", "is_formally_self_dual",
    "lee", "macwilliams_cwe_eval", "macwilliams_lee", "macwilliams_swe",
    "swe", "swe_to_lee", "F2U", "R", "Z4", "RingTable",
]
