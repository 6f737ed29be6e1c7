"""Exact generalized Hilbert-Kunz multiplicities for plane toric rings.

The package computes the multiplicity of the quotient by a monomial
ideal in a two-dimensional normal toric ring as an exact rational
number, together with the finite lattice counts that converge to it,
their split along ordinary powers, torsion factorizations through the
class group, quasi-polynomial fits, and the cross-check coming from
finite representation type.  Everything is exact integer and Fraction
arithmetic; see the cli module for the command line entry point.
"""

from .errors import (
    AsymmetricTable,
    BadParameters,
    CollinearRays,
    ContractViolation,
    DimensionMismatch,
    EmptyInput,
    GeneratorOutsideCone,
    GhkError,
    InputError,
    NoStabilization,
    NotMPrimary,
    NotSaturated,
    UnboundedRegion,
)
from .geometry import (
    Cone2,
    Corner,
    Point,
    Staircase,
    count_lattice_band,
    count_lattice_complement,
    pareto_minimal,
    staircase_complement_area,
)
from .ideals import (
    MonomialIdeal,
    TorsionFactorization,
    frobenius_power,
    is_saturated,
    new_ideal,
    ordinary_power,
    saturation,
    torsion_factorization,
)
from .invariants import (
    ClassFit,
    GapSplit,
    QuasiPolynomial,
    convergence_constant,
    eghk,
    epsilon_estimate,
    fit_quasi_polynomial,
    frobenius_gap_split,
    ghk_function,
    h0_powers,
    newton_multiplicity,
)
from .families import ToricInstance, a_singularity, parse_family, quadrant, veronese
from .reptype import TorTable, a_tor_table, eghk_a, eghk_from_type
from .svgplot import render_region_svg

__all__ = [
    "AsymmetricTable",
    "BadParameters",
    "ClassFit",
    "CollinearRays",
    "Cone2",
    "ContractViolation",
    "Corner",
    "DimensionMismatch",
    "EmptyInput",
    "GapSplit",
    "GeneratorOutsideCone",
    "GhkError",
    "InputError",
    "MonomialIdeal",
    "NoStabilization",
    "NotMPrimary",
    "NotSaturated",
    "Point",
    "QuasiPolynomial",
    "Staircase",
    "ToricInstance",
    "TorsionFactorization",
    "TorTable",
    "UnboundedRegion",
    "a_singularity",
    "a_tor_table",
    "convergence_constant",
    "count_lattice_band",
    "count_lattice_complement",
    "eghk",
    "eghk_a",
    "eghk_from_type",
    "epsilon_estimate",
    "fit_quasi_polynomial",
    "frobenius_gap_split",
    "frobenius_power",
    "ghk_function",
    "h0_powers",
    "is_saturated",
    "new_ideal",
    "newton_multiplicity",
    "ordinary_power",
    "pareto_minimal",
    "parse_family",
    "quadrant",
    "render_region_svg",
    "saturation",
    "staircase_complement_area",
    "torsion_factorization",
    "veronese",
]
