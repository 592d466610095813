"""diskpack: lattice-based selection and k-colouring of unit disks."""

from .arrangement import (CellCopies, DepthWitness, max_distinct_translate_depth,
                          translate_to_cell)
from .bounds import (BoundsTable, adaptive_simpson, alpha_k, bound_table, delta_k,
                     kcolour_guarantee, min_square_overlap, square_overlap_at_angle,
                     weight_lower_bound, weighted_bound_constant)
from .errors import InputError, VerificationError
from .generators import (enclosing_triangle_side, gen_chain, gen_clustered,
                         gen_depth_reduction, gen_random, gen_spirograph)
from .geometry import (Circle, EPS, Point, boundary_disk_hex_area,
                       circle_polygon_intersection_area, lens_area, min_overlap_closed_form)
from .lattice import (Lattice, LatticePoint, LoeschianColouring, ONE_COLOUR_SIDE,
                      SquareLattice, THREE_COLOUR_SIDE, TWO_COLOUR_SIDE,
                      TriLattice, loeschian_decompose)
from .prng import SplitMix64
from .selector import (Assignment, CoverageReport, LatticeInfo, OffsetSampling,
                       solve_basic_3colour, solve_kcolour, solve_rado_1colour,
                       solve_square_2colour, solve_weighted_3colour, verify)
from .union_area import (DiskSet, MCEstimate, exact_union_area,
                         monte_carlo_union_area, scaled_union_area)

__version__ = "0.1.0"
