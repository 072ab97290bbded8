"""Partition/abacus combinatorics behind self-extension vanishing for
symmetric groups: crystal signatures, Mullineux, regularization, Specht
irreducibility, block/RoCK tests, difficulty tables, and a
certificate-producing rule engine."""

from .partitions import (check_partition, check_regular, dominates,
                         format_partition, is_p_regular, is_p_restricted,
                         parse_partition, partitions_of, transpose)
from .abacus import core_and_weight
from .signatures import (SignatureReport, e_tilde, f_tilde, is_difficult,
                         signature)
from .bijections import mullineux, regularize
from .blocks import BlockId, enumerate_block, is_rock_block, is_rouquier
from .specht import (irreducible_specht_preimage, specht_irreducible,
                     theorem_b_applicable)
from .certifier import (ALL_RULES, Certificate, Rule, Step, certify,
                        certificate_from_dict, validate)
from .tables import (RunnerPairConfig, RunnerTripleConfig, derive_table1,
                     derive_table2, local_signature, locally_difficult,
                     realize_config, table2_candidates)

__version__ = "0.1.0"
