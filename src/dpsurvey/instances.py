"""Bundled desk-scale reference instances for the audit oracle.

Every instance is small enough (N <= 6, at most three y values, at most two
x values) that the oracle enumerates it in well under a second, and each
one exists to pin down a specific behavior: formula agreement, the PPS
data-dependence gap, design-structure amplification differences, and the
Neyman allocation leak.
"""

from __future__ import annotations

from .audit import AuditInstance
from .designs import (PPS, SRSWOR, SRSWR, ClusterSRSWOR, StratifiedSRSWOR, Systematic,
                      TwoStageDesign)
from .frames import Frame, make_frame
from .mechanisms import BoundedMean, HTMeanFixedWeights, Proportion

__all__ = [
    "four_unit_frame",
    "five_unit_frame",
    "pps_reference_frame",
    "pps_maxpi_frame",
    "neyman_reference_frame",
    "formula_agreement_instances",
    "invariant_comparison_instances",
    "pps_reference_instance",
    "neyman_allocation_instance",
    "adversarial_systematic_instance",
    "design_library",
    "frame_library",
]

BINARY = (0.0, 1.0)


def four_unit_frame() -> Frame:
    """N=4, equal sizes, two clusters of two: the amplification workhorse."""
    return make_frame([0.0, 0.0, 0.0, 0.0], clusters=["a", "a", "b", "b"])


def five_unit_frame() -> Frame:
    return make_frame([0.0] * 5, clusters=["a", "a", "a", "b", "b"])


def pps_reference_frame() -> Frame:
    """Equal size measures, so the realized weights undersell the universe max."""
    return make_frame([0.0, 0.0, 0.0], xs=[2.0, 2.0, 2.0])


def pps_maxpi_frame(max_pi: float) -> Frame:
    """PPS(n=1) frames whose largest inclusion probability is max_pi."""
    if max_pi == 0.2:
        return make_frame([0.0] * 5, xs=[2.0, 2.0, 2.0, 2.0, 2.0])
    if max_pi == 0.4:
        return make_frame([0.0] * 4, xs=[4.0, 3.0, 2.0, 1.0])
    if max_pi == 0.6:
        return make_frame([0.0] * 4, xs=[6.0, 2.0, 1.0, 1.0])
    raise ValueError(f"no bundled frame with max pi = {max_pi}")


def neyman_reference_frame() -> Frame:
    """Two strata of three; one record's y drives a stratum's spread."""
    return make_frame([0.0, 0.0, 1.0, 0.0, 0.0, 0.0],
                      strata=["A", "A", "A", "B", "B", "B"])


def formula_agreement_instances() -> list[tuple[AuditInstance, object]]:
    """(instance, closed-form descriptor) pairs the oracle must reproduce."""
    pairs: list[tuple[AuditInstance, object]] = []
    for n in (2, 3, 4, 5):
        pairs.append((
            AuditInstance(name=f"proportion-n{n}", statistic="proportion",
                          y_grid=BINARY, size=n),
            Proportion(n=n)))
    for n in (2, 3, 4):
        pairs.append((
            AuditInstance(name=f"mean-n{n}", statistic="mean", y_grid=BINARY, size=n),
            BoundedMean(value_range=1.0, n=n)))
    for weights, n_pop in (((2.0, 3.0, 5.0), 10), ((1.0, 2.0, 4.0), 7),
                           ((5.0, 5.0), 10), ((1.0,), 1)):
        pairs.append((
            AuditInstance(name=f"ht-fixed-{len(weights)}w-N{n_pop}", statistic="ht_mean",
                          y_grid=BINARY, weights=weights, n_pop=n_pop),
            HTMeanFixedWeights(w_max=max(weights), value_range=1.0, n_pop=n_pop)))
    # a total is the fixed-weight mean over a population of one
    for weights in ((2.0, 3.0, 5.0), (1.0, 2.0, 4.0)):
        pairs.append((
            AuditInstance(name=f"ht-total-{len(weights)}w-max{max(weights):g}",
                          statistic="ht_total", y_grid=BINARY, weights=weights),
            HTMeanFixedWeights(w_max=max(weights), value_range=1.0, n_pop=1)))
    return pairs


def pps_reference_instance() -> AuditInstance:
    """N=3 PPS(n=1) with x free on {1, 2}: weights move when a record does."""
    return AuditInstance(
        name="pps-reference", statistic="ht_mean", y_grid=BINARY, x_grid=(1.0, 2.0),
        design=PPS(1), frame=pps_reference_frame(), n_pop=3)


def invariant_comparison_instances() -> list[AuditInstance]:
    """Instances on which frame-invariant sensitivity must not exceed 'none'."""
    instances = [instance for instance, _ in formula_agreement_instances()]
    instances.append(pps_reference_instance())
    instances.append(AuditInstance(
        name="srswor-4", statistic="ht_mean", y_grid=BINARY,
        design=SRSWOR(2), frame=four_unit_frame(), n_pop=4))
    return instances


def neyman_allocation_instance() -> AuditInstance:
    return AuditInstance(
        name="neyman-allocation", statistic="neyman_allocation", y_grid=BINARY,
        design=StratifiedSRSWOR(4, "neyman"), frame=neyman_reference_frame(),
        base_datasets=(tuple(neyman_reference_frame().y),))


def adversarial_systematic_instance() -> AuditInstance:
    """A frame ordering whose systematic partner structure leaks.

    From the mixed base pattern (0, 1, 1, 0) any single mutation flips one
    of systematic sampling's two fixed samples to a truth value no other
    sample shares, while under SRSWOR the six-sample mixture keeps every
    output event blended.  Systematic's effective epsilon therefore hits
    its worst-case cap and strictly exceeds SRSWOR's on this base.
    """
    return AuditInstance(
        name="systematic-adversarial", statistic="mean", y_grid=BINARY,
        design=Systematic(2, "frame"), frame=four_unit_frame(),
        base_datasets=((0.0, 1.0, 1.0, 0.0),))


def design_library(frame: Frame) -> list:
    """Enumerable designs valid on the given frame, for oracle checks.

    All are fixed-size except SRSWR, whose draw count is fixed but whose
    distinct-unit count varies; estimation over distinct units keeps it in
    the design-unbiasedness checks.
    """
    designs = [SRSWOR(1), SRSWOR(2), SRSWR(2),
               Systematic(2, "frame"), Systematic(2, "random")]
    if len(frame.clusters()) >= 2:
        designs.append(ClusterSRSWOR(1))
        designs.append(TwoStageDesign(ClusterSRSWOR(1), SRSWOR(1)))
    if len(frame.strata()) >= 2:
        designs.append(StratifiedSRSWOR(max(2, len(frame.strata())), "proportional"))
    designs.append(PPS(1))
    return designs


def frame_library() -> list[Frame]:
    """Desk-scale frames exercising unequal sizes, strata, and clusters."""
    return [
        make_frame([0.0, 1.0, 0.0], xs=[1.0, 2.0, 3.0]),
        make_frame([0.2, 0.8, 0.4, 1.0], xs=[4.0, 3.0, 2.0, 1.0],
                   clusters=["a", "a", "b", "b"]),
        make_frame([1.0, 0.0, 1.0, 0.0, 0.5], xs=[1.0, 1.0, 2.0, 2.0, 2.0],
                   strata=["A", "A", "B", "B", "B"], clusters=["a", "a", "b", "b", "b"]),
        make_frame([0.0, 0.25, 0.5, 0.75, 1.0, 0.5],
                   strata=["A", "A", "A", "B", "B", "B"],
                   clusters=["a", "a", "b", "b", "c", "c"]),
        five_unit_frame().with_y([0.0, 1.0, 1.0, 0.0, 1.0]),
    ]
