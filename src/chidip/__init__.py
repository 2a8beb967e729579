"""Resonance interaction of two identical two-level electric dipoles in an
absorption-free optically active (chiral) medium.

Closed-form collective decay rates, level shifts, excitation dynamics and
interaction energy as functions of geometry and the two circular refractive
indices.  All rates/shifts are in units of Gamma0 (the free-space
single-dipole emission rate), lengths in units of 1/k0.

The brute-force verification interface lives in :mod:`chidip.oracle` and is
deliberately not re-exported here.
"""

from .collective import (
    CollectiveSpectrum,
    LambCutoff,
    MediumChirality,
    a_l_damping,
    a_t,
    collective_spectrum,
    f1,
    f2,
    lamb_shift,
)
from .dynamics import (
    AmplitudeTrajectory,
    evolve,
    interaction_energy_at,
)
from .errors import (
    ChidipError,
    DomainError,
    InvalidGeometry,
    InvalidSeparation,
    OracleDivergence,
    UnphysicalRates,
    UsageError,
)
from .geometry import (
    DipoleGeometry,
    GeometryInvariants,
    geometry_factors,
    normalize_geometry,
)
from .specfun import AuxIntegralResult, aux_i1, aux_i2

__version__ = "0.1.0"

__all__ = [
    "AmplitudeTrajectory",
    "AuxIntegralResult",
    "ChidipError",
    "CollectiveSpectrum",
    "DipoleGeometry",
    "DomainError",
    "GeometryInvariants",
    "InvalidGeometry",
    "InvalidSeparation",
    "LambCutoff",
    "MediumChirality",
    "OracleDivergence",
    "UnphysicalRates",
    "UsageError",
    "a_l_damping",
    "a_t",
    "aux_i1",
    "aux_i2",
    "collective_spectrum",
    "evolve",
    "f1",
    "f2",
    "geometry_factors",
    "interaction_energy_at",
    "lamb_shift",
    "normalize_geometry",
    "__version__",
]
