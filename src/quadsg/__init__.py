"""Invariants of numerical semigroups generated by quadratic sequences.

S(a,b) is generated by y_n = n*a + C(n,2)*b.  The package computes the
minimum index-weight function mu and its analytic envelope, membership,
Apery sets, Frobenius number, genus, and embedding dimension, replays
the exhaustive searches that locate every exceptional pair, and checks
each closed form against an oracle derived from one Apery set, computed
by round robin from the generators alone.
"""

from . import invariants, mu, search

__version__ = "0.1.0"

__all__ = [name for module in (invariants, mu, search) for name in module.__all__]

# Star imports come after __all__ is read from the submodules: `from .mu
# import *` rebinds the package attribute mu from the submodule to the
# function, which is what `quadsg.mu` must mean.
from .invariants import *  # noqa: E402,F403
from .mu import *  # noqa: E402,F403
from .search import *  # noqa: E402,F403
