"""alcove-lab: exact-arithmetic alcove and label-set combinatorics for
modular categories O over quantized symplectic resolutions.

The package computes wall arrangements over a lattice, real and p-alcoves,
integral/positive/quantum chambers, parameters compatible with an
(alcove, face) pair, highest-weight orders with their free shift action,
standardly stratified pre-orders with their finite equivalence classes, and
the Mullineux-realized wall-crossing bijections of the Hilbert-scheme case.
"""

from .arith import (AffineInP, Wall, affine, is_saturated, pairing,
                    primitivize, rat, rat_str, saturate, vec)
from .alcoves import (Chamber, Face, NonRegularError, OnPWallError, PAlcove,
                      PTooSmallError, QuantumChamber, RealAlcove,
                      SingularPointError, faces_of,
                      integral_walls_and_positive_chamber, opposite_alcove,
                      p_alcove_of, p_membership, quantum_chamber,
                      real_alcove_of, translation_path)
from .compat import (CompatiblePair, find_compatible, opposite_pair,
                     verify_compatible)
from .instances import (FixedPointInstance, builtin_instance, hilb_instance,
                        weyl_a_instance, wt_chi)
from .mullineux import (mullineux, mullineux_oracle, mullineux_symbol,
                        wc_bijection_hilb)
from .orders import (Label, LabeledPoset, PreOrder, c_bar,
                     crossing_threshold_bound, equivalence_classes,
                     export_poset, hw_order, interval_image,
                     order_compat_check, phw_axiom_check, ss_preorder)
from .partitions import (cont, e_regular_partitions, is_e_regular, n_stat,
                         partition_from_str, partition_str, partitions,
                         transpose)
from .validate import validate_p
from .config import parse_config, run_report

__version__ = "0.1.0"
