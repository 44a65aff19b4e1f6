"""Subspace codes in projective space over finite fields.

Representation and distances for subspaces of GF(q)^n, rank-metric code
constructions of constant-dimension and projective-space codes, size
bounds, Grassmannian index encoding, and an operator-channel simulator.
"""

from .bounds import BoundReport, cdc_bounds, pspace_lower_bound
from .channel import ChannelConfig, min_distance_decode, simulate, transmit
from .constructions import (
    ConstantWeightCode,
    SubspaceCode,
    lift,
    lift_gabidulin,
    multilevel,
    multilevel_fixture,
    puncture,
    spread_like,
)
from .distances import distance_fast, distance_naive, min_distance
from .fields import (
    ExtensionView,
    FieldSpec,
    extension_view,
    make_field,
)
from .indexing import (
    box_partition_coeffs,
    decode_extended,
    decode_full,
    encode_extended,
    encode_full,
    gaussian_power_bounds,
    partition_fib,
    suffix_family,
)
from .matrices import MatGF, rank, rref, row_space_equal, vconcat
from .rankcodes import (
    FerrersRankCode,
    GabidulinCode,
    RankCodeword,
    ZeroPattern,
    ferrers_bound,
    ferrers_d2_code,
    gabidulin,
    rank_distance,
    span_code,
)
from .subspaces import (
    FerrersShape,
    IdVector,
    Subspace,
    count_with_id,
    echelon_ferrers_shape,
    enumerate_grassmannian,
    fill_shape,
    from_literal,
    from_span,
    full_space,
    gaussian,
    identifying_vector,
    orthogonal_complement,
    to_literal,
    zero_subspace,
)

__version__ = "0.1.0"
