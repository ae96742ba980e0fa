"""invcat: invariants of free linear categories under finite group actions.

Build a quiver with arrow-space dimensions, attach invertible matrices to
the arrows for each group generator, and the engine computes, exactly
(over Q, Q(zeta_n) or F_p): the fixed/composite/irreducible subspace of
every path up to a degree bound, the generator quiver of the invariant
category with a completeness certificate, an executable freeness check,
and the Gabriel / Donovan-Freislich representation-type classification.
"""

from .fields import (
    CyclotomicElement,
    CyclotomicField,
    DivisionByZero,
    FieldError,
    FieldMismatch,
    PrimeField,
    PrimeFieldElement,
    QQ,
    RationalField,
    cyclotomic_polynomial,
    euler_phi,
)
from .linalg import (
    AmbientMismatch,
    LinAlgError,
    Matrix,
    NotASubspace,
    ShapeMismatch,
    Subspace,
)
from .quiver import (
    DEFAULT_PATH_CAP,
    Multigraph,
    Path,
    PathCapExceeded,
    Quiver,
    QuiverError,
    UnknownVertex,
    underlying_multigraph,
)
from .action import (
    ActionError,
    ActionSpec,
    CharacterTable,
    ClosureCapExceeded,
    DEFAULT_GROUP_CAP,
    NonInvertibleGenerator,
    NotSchurian,
    close_group,
    extract_characters,
)
from .engine import (
    DecompositionVerdict,
    ProfileTable,
    StringInvariants,
    compute_profiles,
    schurian_generators,
    verify_decomposition,
)
from .category import (
    Completeness,
    FreenessVerdict,
    GeneratorEntry,
    InvariantQuiverReport,
    build_invariant_quiver,
    completeness_bound,
    free_category_dims,
    generator_quiver,
    verify_freeness,
)
from .reptype import (
    Classification,
    DiagramLabel,
    Disconnected,
    FINITE,
    InvariantClassification,
    TAME,
    WILD,
    classify,
    classify_invariants,
    classify_multigraph,
    recognize_component,
)
from .jobs import (
    JobSpec,
    ParseError,
    load_job,
    parse_job,
    report_to_dict,
    run_pipeline,
)

__version__ = "0.1.0"
