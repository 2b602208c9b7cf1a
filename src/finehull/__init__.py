"""Certified desk-scale models of gap products, their square-root
branches, capacity chains, and fiber potentials.

The package materializes finitely many stages of constructions whose
interesting behavior lives at infinite depth, and pairs every truncation
with an explicit, certified error or capacity bound so statements about
the limit object survive at double precision.
"""

from .cantor import (CRule, CantorSpec, ConditionSum, GapInterval,
                     build_cantor_spec, cantor_length, condition_sum,
                     spec_from_json, spec_to_json, sum_gap_lengths)
from .errors import FinehullError, PreconditionFailure
from .logspace import LogComplex
from .product import (BranchTag, TailBound, certify_en_point, eval_f,
                      eval_partial_product, eval_partial_product_many,
                      fine_boundary_value, laurent_c1, sqrt_branch,
                      tail_product_minus_one, tail_bound)
from .potential import (CompactUnion, ESample, FineSets, GreenModel, Shape,
                        UnionBound, arc, cantor_fine_sets, disk,
                        exact_capacity, exact_log_capacity, fine_witness_u,
                        green_eval, interval, leja_points, sample_E,
                        union_capacity_bound)
from .hull import (Dip, HullGrid, HullPotentialSpec, WeightScheme,
                   build_weights, eval_v, eval_v_on_graph, fiber_scan,
                   graph_depth_bound, grid_axes, grid_report, make_hull_spec,
                   v_n)
from .blaschke import (ArcSample, BlaschkeSpec, BlaschkeZero, DiskFineSets,
                       blaschke_sample_E, blaschke_spec_from_json,
                       blaschke_tail_bound, build_blaschke_spec,
                       certify_arc_point, disk_fine_sets, eval_blaschke,
                       extra_zeros, fb_sheet, fb_sheet_spacing, fb_sheets,
                       radius_from_condition, smallest_closing_N,
                       van_der_corput)

__version__ = "0.1.0"
