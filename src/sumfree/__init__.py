"""Exact-rational tools for extremal k-sum-free sets.

Verification of explicit interval-union examples, exact LP based global
search for maximal configurations, the discrete f(n, k) solver, and the
mechanical certificate for the 1/2 - 1/114 measure bound.
"""

__version__ = "0.35.0"

from .rationals import RationalParseError
from .intervals import Interval, IntervalUnion, Witness, is_k_sum_free, parse_union
from .lp import LinearProgram, solve
from .search import SearchResult, build_pattern_lp, maximize_measure
from .discrete import forbidden_triples, f_max, enumerate_maximum_sets
from .certify import derive_delta, check_chain, sumset_bound_harness

__all__ = [
    "RationalParseError",
    "Interval", "IntervalUnion", "Witness", "is_k_sum_free", "parse_union",
    "LinearProgram", "solve", "SearchResult", "build_pattern_lp",
    "maximize_measure", "forbidden_triples", "f_max",
    "enumerate_maximum_sets", "derive_delta", "check_chain",
    "sumset_bound_harness",
]
