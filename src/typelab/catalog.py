"""Bundled example inputs shared by the acceptance suite and the tests.

The oracle-facing separated bundle contains only measures whose smallest
atom mass stays well above the double-precision floor: an atom whose mass
is at working precision is itself a trivial near-annihilator at every
frequency and hides the transition from the probe (the estimators still
handle such measures; the probe cannot see them).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constructions import alternating_partition, arithmetic, measure_from_weights
from .core import DiscreteMeasure, Interval, Partition
from .typeproblem import polynomial_rescale


@dataclass(frozen=True)
class SeparatedExample:
    """One infinite measure, truncated at the scale each instrument needs.

    ``measure`` is the desk-scale truncation the SVD probe can afford;
    ``formula_measure`` is a longer truncation of the same family for the
    counting/uniformity estimators, whose verdicts need more dyadic shells.
    """

    name: str
    measure: DiscreteMeasure
    formula_measure: DiscreteMeasure
    expected_type: float
    oracle_a_max: float


def koosis_measure(T: float) -> DiscreteMeasure:
    """Unit-spaced support with polynomial weights ``(1+n^2)^-2``."""
    return spaced_polynomial_measure(1.0, T)


def spaced_polynomial_measure(d: float, T: float) -> DiscreteMeasure:
    """Arithmetic support of density ``d`` with polynomial weights."""
    return measure_from_weights(arithmetic(d, T), "polynomial", {"beta": 2.0})


def mixed_parity_measure(T: float) -> DiscreteMeasure:
    """Exponential weights on even integers, polynomial on odd ones."""
    return measure_from_weights(arithmetic(1.0, T), "mixed", {"beta": 2.0, "c": 1.0})


def oracle_separated_bundle(T: float) -> list[SeparatedExample]:
    """Separated measures the completeness probe can cross-validate."""
    two_pi, formula_T = 2.0 * math.pi, 1000.0
    return [
        SeparatedExample("koosis-unit", koosis_measure(T), koosis_measure(formula_T),
                         two_pi, 12.6),
        SeparatedExample("arith-half", spaced_polynomial_measure(0.5, T),
                         spaced_polynomial_measure(0.5, formula_T), math.pi, 6.3),
        SeparatedExample("koosis-rescaled",
                         polynomial_rescale(koosis_measure(T), 2.0),
                         polynomial_rescale(koosis_measure(formula_T), 2.0),
                         two_pi, 12.6),
    ]


def benedicks_partition(T: float) -> Partition:
    return alternating_partition(1.0, 2.0, T)


def long_gap_support() -> list:
    """Union of intervals whose complement gaps form a long family."""
    return [Interval(2.0 ** n + 2.0 ** (n - 1), 2.0 ** (n + 1)) for n in range(1, 14)]


def short_gap_support() -> list:
    """Union of intervals whose complement gaps form a short family."""
    return [Interval(2.0 ** n + n, 2.0 ** (n + 1)) for n in range(1, 14)]


def fast_decay_measure() -> DiscreteMeasure:
    """Doubly exponential decay ``exp(-e^n)`` on the nonnegative integers."""
    n = np.arange(0, 7, dtype=float)
    return DiscreteMeasure(n, np.exp(-np.exp(n)), 12.0, "fast-decay")
