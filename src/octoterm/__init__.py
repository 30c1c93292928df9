"""Conditional termination analysis for integer loops and programs.

The package decides weakest non-termination preconditions for octagonal
relations in polynomial time, synthesizes linear ranking witnesses for
the well-founded ones, computes exact preconditions for finite-monoid
affine loops and sufficient termination conditions for polynomially
bounded ones, and lifts all of this to control-flow graphs through
summaries and transition invariants.
"""

from .dbm import Dbm, INF, fw_close, dbm_compose, dbm_leq, dbm_eq, dbm_project
from .octagon import (
    Octagon,
    oct_compose,
    oct_decode,
    oct_encode,
    oct_eq,
    oct_exists,
    oct_hull,
    oct_leq,
    tight_close,
)
from .closure import (
    ParamOct,
    ParamOctUnion,
    PeriodCertificate,
    detect_period,
    kleene_pre_sequence,
    reflexive_transitive_closure,
)
from .term_oct import WntResult, fast_power, is_well_founded, wnt
from .ranking import (
    RankingWitness,
    prove_termination,
    synthesize_lrf,
    verify_lrf,
    witness_relation,
)
from .affine import (
    AffineRel,
    finite_monoid_wnt,
    is_finite_monoid,
    poly_matrix_power,
    sufficient_termination,
)
from .program import Budgets, PrecondResult, is_flat, nt_program, parse_program, transitive_relation

__version__ = "0.1.0"

__all__ = [
    "AffineRel",
    "Budgets",
    "Dbm",
    "INF",
    "Octagon",
    "ParamOct",
    "ParamOctUnion",
    "PeriodCertificate",
    "PrecondResult",
    "RankingWitness",
    "WntResult",
    "dbm_compose",
    "dbm_eq",
    "dbm_leq",
    "dbm_project",
    "detect_period",
    "fast_power",
    "finite_monoid_wnt",
    "fw_close",
    "is_finite_monoid",
    "is_flat",
    "is_well_founded",
    "kleene_pre_sequence",
    "nt_program",
    "oct_compose",
    "oct_decode",
    "oct_encode",
    "oct_eq",
    "oct_exists",
    "oct_hull",
    "oct_leq",
    "parse_program",
    "poly_matrix_power",
    "prove_termination",
    "reflexive_transitive_closure",
    "sufficient_termination",
    "synthesize_lrf",
    "tight_close",
    "transitive_relation",
    "verify_lrf",
    "witness_relation",
    "wnt",
]
