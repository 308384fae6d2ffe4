"""Electrical flows, transfer impedance, Schur-complement elimination, and
oblivious-routing diagnostics on weighted graphs.

The package re-exports the ``__all__`` of each module."""

from .graph import *  # noqa: F403
from .solver import *  # noqa: F403
from .electrical import *  # noqa: F403
from .schur import *  # noqa: F403
from .localization import *  # noqa: F403
from .routing import *  # noqa: F403

__version__ = "0.1.0"
