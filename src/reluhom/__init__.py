"""Polyhedral decompositions of ReLU networks and persistence over
activation-pattern distance matrices."""

from .enumeration import (
    BoxRegion,
    DecompositionAtlas,
    dual_graph,
    enumerate_brute,
    enumerate_traverse,
)
from .metric import DistanceMatrix, combine, hamming_matrix
from .network import (
    BitVector,
    NetworkSpec,
    PackedBits,
    bit_vector,
    bit_vectors,
    forward,
    load_network,
)
from .persistence import (
    Barcode,
    Filtration,
    build_filtration,
    compute_barcodes,
    export_lower_distance,
    read_lower_distance,
)
from .regions import Region, region_of
from .sampling import (
    AnchorFamily,
    circle_samples,
    random_orthogonal_anchors,
    torus_samples,
)

__version__ = "0.1.0"
