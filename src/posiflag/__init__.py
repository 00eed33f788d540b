"""Exact total positivity for unipotent matrices and tuples of flags.

Everything verdict-shaped runs in exact rational arithmetic; only the
dynamics module (SVD flags, singular profiles) works in floating point.
All row, column, and position indices in public interfaces are 1-based.

Each module lists its public names in its own `__all__`; the package
republishes exactly those.
"""

from . import dynamics, errors, flags, linalg, positivity, reps, tuples
from .dynamics import *
from .errors import *
from .flags import *
from .linalg import *
from .positivity import *
from .reps import *
from .tuples import *

__version__ = "0.1.0"

__all__ = []
__all__ += dynamics.__all__
__all__ += errors.__all__
__all__ += flags.__all__
__all__ += linalg.__all__
__all__ += positivity.__all__
__all__ += reps.__all__
__all__ += tuples.__all__
