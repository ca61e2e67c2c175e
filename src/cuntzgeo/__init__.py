"""cuntzgeo: exact differential geometry on the Cuntz algebra O_3.

Normal-form arithmetic for the dense *-subalgebra, the differential calculus
induced by the rotation action, Levi-Civita connections for bilinear
pseudo-Riemannian metrics on the one-form module, and their curvature — all
over exact Gaussian-rational coefficients.

An export goes in the ``__all__`` of the module that defines it; this file
joins those lists and re-exports their names.  ``__all__`` is joined before
the star imports, which rebind ``curvature`` from the submodule to the
function of that name.
"""

from . import algebra, calculus, curvature, exprs, geometry, scalars

__all__ = [name for module in (algebra, calculus, curvature, exprs, geometry, scalars)
           for name in module.__all__]

from .algebra import *
from .calculus import *
from .curvature import *
from .exprs import *
from .geometry import *
from .scalars import *

__version__ = "0.1.0"
