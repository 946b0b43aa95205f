"""critlat: finite lattice congruence computations.

Congruence lattices, variety containment through subdirectly irreducible
quotients, chain/directing/glued diagrams, lifting verification, embedding
extraction, and the decision whether the critical point between two finitely
generated lattice varieties is infinite or at most aleph-two.
"""

from .congruence import (
    ConcMap,
    ConLattice,
    Congruence,
    JoinIrreducibles,
    conc_of_hom,
    con_lattice,
    is_boolean,
    is_congruence_chain,
    is_congruence_preserving_extension,
    is_direct_congruence_chain,
    is_simple,
    kernel,
    principal_congruence,
)
from .critpoint import ConcReport, CritVerdict, conc_class_report, crit_gate
from .diagrams import (
    EMPTY,
    TOP,
    IndexPoset,
    LatticeDiagram,
    SemilatticeDiagram,
    apply_conc,
    base_diagram,
    chain_diagram,
    chain_diagram_of_partial,
    directing_diagram,
    export_dot,
    extend_diagram,
    glued_diagram,
    node_of,
    product_over,
)
from .errors import CritlatError
from .lattice import (
    FiniteLattice,
    Homomorphism,
    PartialLattice,
    ProductLattice,
    builtin,
    dual,
    embed_partial,
    enumerate_subuniverses,
    induced_partial_sublattice,
    is_distributive,
    is_isomorphic,
    lattice_dot,
    lattice_from_json,
    lattice_to_json,
    load_lattice,
    maximal_chains,
    product,
    product_projections,
    quotient,
    save_lattice,
    spanning_chains,
    subuniverse_closure,
    validate_lattice,
)
from .liftings import (
    ChainWitness,
    Lifting,
    check_directing_property,
    direct_chains_at,
    dual_lifting,
    extract_embedding,
    extract_embedding_auto,
    find_congruence_chains,
    identity_lifting,
    retraction_congruence_chain,
    verify_lifting,
)
from .variety import (
    HSWitness,
    SIQuotient,
    find_separating_si,
    hs_member,
    si_pair_classifier,
    si_quotients,
    subdirect_decomposition,
    var_leq,
)

__version__ = "0.1.0"
