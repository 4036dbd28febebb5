"""Feasibility and small press sets for lamp-lighting (all-ones) instances.

Given a graph where every vertex carries a lamp and a button (pressing
toggles the neighbors' lamps, plus the vertex's own lamp for '+' style
switches), decide whether all lamps can be turned on, and if so produce a
press set whose size is provably at most min(r, (n + opt)/2), where r is
the rank of the press-effect matrix and opt the true minimum.
"""

from .approx import solve_approx, solve_from_decomposition
from .exact import exact_by_nullspace, exact_by_press_enumeration
from .gf2 import BitMat, BitVec, solve
from .instance_io import ParseError, parse_instance, render_instance
from .lamps import (
    Instance,
    Solution,
    SwitchType,
    build_system,
    is_all_on,
    simulate_presses,
)

__version__ = "0.1.0"

__all__ = [
    "BitMat",
    "BitVec",
    "Instance",
    "ParseError",
    "Solution",
    "SwitchType",
    "build_system",
    "exact_by_nullspace",
    "exact_by_press_enumeration",
    "gen_complete",
    "gen_cycle",
    "gen_grid",
    "gen_path",
    "gen_random_gnp",
    "gen_random_tree",
    "is_all_on",
    "parse_instance",
    "render_instance",
    "simulate_presses",
    "solve",
    "solve_approx",
    "solve_from_decomposition",
]


def __getattr__(name: str):
    # the names of __all__ not bound above are generators, loaded on first
    # use, so `import allones` compiles neither them nor the gen command
    if name in __all__:
        from . import generators

        return getattr(generators, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
