"""Inverse mean curvature flow and geometric inequality audits in
Kottler (ADS-Schwarzschild, toroidal, and hyperbolic) black-hole
backgrounds."""

# Each module's __all__ (errors.py: its seven classes) is the one list of its public names.
from .base import *  # noqa: F401,F403
from .background import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .flow import *  # noqa: F401,F403
from .functionals import *  # noqa: F401,F403
from .surfaces import *  # noqa: F401,F403

__version__ = "0.1.0"
