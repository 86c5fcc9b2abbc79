"""Exact distal cell decompositions over ordered, Presburger and p-adic
structures, with verification oracles, shatter-function estimation and the
incidence experiments."""

from .decomp import (
    CellInstance,
    Decomposition,
    VerificationReport,
    shatter_estimate,
    verify,
)
from .families import (
    ParamFamily,
    TypeCensus,
    census_probes_1d,
    type_census_1d,
    type_census_probe,
)
from .rng import SplitMix64
from .scalars import in_pn, in_qmn, unit_residue, valuation

__version__ = "0.1.0"

__all__ = [
    "CellInstance",
    "Decomposition",
    "ParamFamily",
    "SplitMix64",
    "TypeCensus",
    "VerificationReport",
    "census_probes_1d",
    "in_pn",
    "in_qmn",
    "shatter_estimate",
    "type_census_1d",
    "type_census_probe",
    "unit_residue",
    "valuation",
    "verify",
]
