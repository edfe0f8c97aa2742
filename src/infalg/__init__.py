"""Finite information algebras with set-algebra representations, atom
theory, and a fully verified finite Priestley-style duality with Q-spaces."""

from .algebra import (AlgebraMorphism, InfoAlgebra, check_kernel_theorem, extraction_image,
                      ideal_completion, is_distributive_cdf, is_homomorphism, is_isomorphism,
                      kernel, make_algebra, verify_axioms)
from .atoms import AtomReport, atom_representation, atoms, check_complete_atomistic_boolean, classify
from .duality import (QMorphism, QSpace, boolean_diagnostics, check_q_morphism, check_separating,
                      dualize, dualize_morphism, make_nontrivial_separating, make_q_space,
                      reconstruct, round_trip_algebra, round_trip_space,
                      sentence_commutation, sentence_saturation_upsets, sentence_separation,
                      sentence_separation_star)
from .equivalence import (Equivalence, StarFamily, is_downward_directed, least_upper_equivalence,
                          saturate, star, star_closure, star_family)
from .errors import (CapExceeded, FormatError, InfAlgError, NonCommutingError, NotDirectedError,
                     PreconditionError, StructureError)
from .generators import (enumerate_algebras, enumerate_q_spaces, gen_lattice_valued,
                         gen_multivariate, gen_string)
from .order import (BoundedJoinSemilattice, FinitePoset, complements, glb, is_distributive,
                    meet_irreducibles, up_sets, verify_poset)
from .set_algebra import (SetAlgebra, build_block_union_algebra, build_set_algebra,
                          principal_upset_representation)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
