"""Cover-free families on graphs: constructions, verification, bounds, and
exact exhaustive search."""

from .core import IncidenceMatrix, is_d_disjunct, is_g_cff
from .errors import InvalidInputError, ResourceLimitError
from .graphs import Graph, make_family

__version__ = "0.1.0"

# Convenience re-exports for the most common entry points.
from .bounds import bounds_for  # noqa: E402
from .constructions import construct, star_cff, windmill_cff  # noqa: E402
from .graycode import path_cycle_cff  # noqa: E402
from .solver import exact_t, exists_cff, longest_path_cff  # noqa: E402
from .sperner import optimal_1cff, t1  # noqa: E402

__all__ = [
    "Graph",
    "IncidenceMatrix",
    "InvalidInputError",
    "ResourceLimitError",
    "is_d_disjunct",
    "is_g_cff",
    "make_family",
    "bounds_for",
    "construct",
    "star_cff",
    "windmill_cff",
    "path_cycle_cff",
    "exact_t",
    "exists_cff",
    "longest_path_cff",
    "optimal_1cff",
    "t1",
    "__version__",
]
