"""Exception types, and the base of the result records, shared across the
package.

CLI exit codes map onto these: ConfigError -> 2, IntegrationError -> 3,
CalibrationError -> 4.
"""

from __future__ import annotations


class SapsimError(Exception):
    """Base class for all package errors."""


class GeometryError(SapsimError):
    """Invalid waveguide layout (crossings, overlaps, bad parameters)."""


class ConfigError(SapsimError):
    """Invalid or unknown configuration content; message names the key path."""


class IntegrationError(SapsimError):
    """A numerical failure: the integrator failed, or a derived quantity
    (a dark state, a far field) is undefined."""


class CalibrationError(SapsimError):
    """Closed-loop calibration found no admissible point.

    Carries the scanned grid and the crosstalk values as a diagnostic curve.
    """

    def __init__(self, message, kappa_grid=None, crosstalk_db=None):
        super().__init__(message)
        self.kappa_grid = kappa_grid
        self.crosstalk_db = crosstalk_db


class Record:
    """Base of the records that may hold arrays: their fields are the
    ``__slots__`` the subclass's ``__init__`` sets; compared by identity."""

    __slots__ = ()

    def __repr__(self) -> str:
        fields = (f"{name}={getattr(self, name)!r}" for name in self.__slots__
                  if name != "__dict__")
        return f"{type(self).__name__}({', '.join(fields)})"
