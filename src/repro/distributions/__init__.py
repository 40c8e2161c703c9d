"""Distribution substrate: pmfs, histograms, distances, projections, families."""

from repro.distributions.discrete import DiscreteDistribution
from repro.distributions.distances import (
    chi2_distance,
    hellinger_distance,
    ks_distance,
    l1_distance,
    l2_distance,
    tv_distance,
)
from repro.distributions.histogram import (
    Histogram,
    breakpoint_intervals,
    breakpoints,
    is_k_histogram,
    num_pieces,
)
from repro.distributions.projection import (
    Projection,
    coarse_flattening_projection,
    exists_close_histogram,
    flattening_distance,
    histogram_distance_bounds,
    project_flattening,
    unconstrained_l1_distance,
)
from repro.distributions.continuous import GriddedSource
from repro.distributions.kmodal import (
    birge_flattening,
    birge_partition,
    is_k_modal,
    kmodal_histogram_pieces,
    num_direction_changes,
    random_k_modal,
    robust_direction_changes,
)
from repro.distributions.replay import InsufficientSamples, ReplaySource
from repro.distributions.sampling import SampleSource, as_source, counts_from_samples
from repro.distributions.serialize import (
    histogram_from_dict,
    histogram_from_json,
    histogram_to_dict,
    histogram_to_json,
)

__all__ = [
    "InsufficientSamples",
    "ReplaySource",
    "DiscreteDistribution",
    "GriddedSource",
    "Histogram",
    "Projection",
    "SampleSource",
    "as_source",
    "birge_flattening",
    "birge_partition",
    "is_k_modal",
    "kmodal_histogram_pieces",
    "num_direction_changes",
    "random_k_modal",
    "robust_direction_changes",
    "breakpoint_intervals",
    "breakpoints",
    "chi2_distance",
    "coarse_flattening_projection",
    "counts_from_samples",
    "exists_close_histogram",
    "flattening_distance",
    "hellinger_distance",
    "histogram_distance_bounds",
    "histogram_from_dict",
    "histogram_from_json",
    "histogram_to_dict",
    "histogram_to_json",
    "is_k_histogram",
    "ks_distance",
    "l1_distance",
    "l2_distance",
    "num_pieces",
    "project_flattening",
    "tv_distance",
    "unconstrained_l1_distance",
]
