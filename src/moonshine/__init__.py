"""Exact-arithmetic library for the six lambent mock modular vectors: the
distinguished weight-0 forms, their twisted series for every conjugacy class
of the attached groups, the signed permutation groups themselves, character
tables with module decompositions, and the degree-two lifts."""

from .algebra import QuadValue
from .jacobi import (HVector, WindowedSeries, appell_mu, extract_H,
                     extremal_space_dim, gritsenko, hat_theta, index_theta,
                     jacobi_theta, psi_one_one, umbral_Z, verify_extremal,
                     verify_n4_identity, windowed_mul, zeta_form)
from .groups import (CharacterTable, GroupData, SignedPerm, character_table,
                     check_ell4_to_ell2, euler_chars, frame_shapes, generate,
                     shuffle_group, squared_class_set, umbral_group)
from .mckay import (TwistedH, mock_identity_check, multiplier_rho, pairing,
                    twisted_H, verify_F_consistency, weight2)
from .qseries import (FracSeries, dedekind_epsilon, eta, eta_quotient,
                      lambda_n, mock_theta, newform, unary_theta)
from .reps import (Multiplicities, decompose, discriminant_report,
                   validate_table, verify_decomposition_tables)
from .siegel import TripleSeries, additive_lift, compare_igusa, exponential_lift

__version__ = "1.0.0"
