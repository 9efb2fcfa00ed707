"""lodua: an exact engine for local duality in commutative algebra.

Torsion and derived-completion functors, local (co)homology, derived
functors of I-adic completion, lim/lim^1 of towers, completeness and
torsion membership certificates, and comodules over group-like Hopf
algebroids, all with exact arithmetic and explicit certificates.
"""

from .complexes import (ChainComplex, ChainMap, cone, hom_complex,
                        induced_on_homology, total_complex)
from .context import settings
from .criteria import (CompletenessCertificate, ext_telescope,
                       homology_membership, is_L_complete, is_lambda_local)
from .descriptors import (CompletionCokernel, FPObj, LimitModule, Rational,
                          Telescope, TelescopeQuotient, values_agree)
from .errors import (BudgetExceeded, InternalInconsistency, InvalidInput,
                     LoduaError, PrecisionMismatch, UnrecognizedTower,
                     UnsupportedRing)
from .groebner import GBasis, groebner_ideal, ideal_basis_polys
from .hopf import (Comodule, GroupLikeHopfAlgebroid, comodule_completion,
                   extended_adjunction, extended_comodule, iota,
                   verify_theorems)
from .linalg import invariant_factors, smith_normal_form, syzygies
from .local import (CechComplex, GammaObject, GradedObject, IdealData,
                    ValueTable, adic_completion, adjunction_check,
                    derived_completion, derived_hom_value, gamma,
                    gm_ses_check, local_cohomology,
                    local_cohomology_value, local_homology_Ls,
                    stable_koszul_complex)
from .modules import (FPModule, ModuleMap, ext, free_resolution, iso_check,
                      subquotient, tensor, tor)
from .ring import Ring, RingElement, groebner_basis, make_ring
from .sequences import is_regular_sequence
from .towers import Tower, TowerLimits, is_pro_trivial, lim_lim1

__version__ = "0.1.0"
