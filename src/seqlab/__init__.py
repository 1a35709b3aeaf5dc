"""seqlab: prefix densities, lacunary block summability, and Orlicz-type norms
at finite truncation."""

from .core import (IndexSet, LacunaryScheme, SequencePrefix, make_index_set,
                   make_lacunary)
from .density import (DensityEstimate, ComplementCheck, checkpoints,
                      complement_inequality_check, exceedance_set, f_density,
                      natural_density)
from .errors import (CauchyConstructionError, GenerationError, SeqlabError,
                     SpecError, SpreadError, TruncationError,
                     UnboundedNormError, WitnessExtractionError)
from .matrices import (RegularityReport, SummabilityMatrix, apply_row,
                       make_matrix, regularity_check, transform_prefix)
from .membership import (DEFAULT_EPS, DEFAULT_TOL, CauchyReport,
                         MembershipReport, SpaceParams, block_membership,
                         block_trails, density_membership, pointwise_scores,
                         stat_cauchy_check, stat_limit_estimate)
from .modulus import (AxiomCheck, Modulus, ModulusAxiomReport,
                      check_modulus_axioms, make_modulus)
from .orlicz import (Delta2Report, OrliczFn, OrliczFamily, OrliczAxiomReport,
                     OrliczNormResult, RhoSchedule, block_mean_norm,
                     check_orlicz_axioms, const_rho, delta2_check,
                     luxemburg_norm, make_family, make_orlicz, make_rho,
                     modular, orlicz_norm, uniform_family, weighted_family)
from .sequences import (alternating_sequence, const_sequence,
                        harmonic_sequence, make_sequence, read_sequence_csv,
                        spike_sequence)
from .witnesses import (BLOCK_SPIKE_DISCREPANCY, ModulusProbeReport,
                        NestedLimit, OffWitnessCheck, PairReport,
                        WitnessSet, block_spike_report,
                        cauchy_limit_construction, converge_off_witness,
                        extract_witness_set, gen_block_spike_instance,
                        gen_half_plateau_instance, half_plateau_report,
                        multi_modulus_probe)

__version__ = "0.1.0"
