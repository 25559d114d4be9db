"""germlift: exact computation of liftable vector fields of polynomial map-germs.

The package computes, transforms and certifies modules of vector fields that
lift over polynomial map-germs: Groebner bases and syzygies over Q[x], the
stable-unfolding pipeline for liftable fields, logarithmic vector fields of
discriminants, and the augmentation transforms relating them.  Every claimed
identity is re-verified by exact expansion before it is reported.
"""

from .errors import (
    AmbientError,
    DescentResidueError,
    ExprSyntaxError,
    GermliftError,
    GroebnerTimeout,
    InputNotLiftable,
    InverseCheckFailed,
    ManifestError,
    NotDivisible,
    NotEquidimensional,
    OutputNotCertified,
    RankError,
    SchemaError,
    StructureError,
    UnknownVariable,
    ValidationError,
)
from .poly import MonomialOrder, Polynomial, VarSet, exact_divide, integer_normalize
from .modules import ModuleElement, Submodule, proportional
from .groebner import (
    Budget,
    GroebnerBasis,
    Membership,
    eliminate,
    express,
    module_equal,
    module_intersect,
    prune_module,
    syzygy_module,
)
from .germs import (
    MapGerm,
    Unfolding,
    VectorField,
    apply_to,
    jacobian,
    push_forward,
    tf_generators,
    wf_apply,
)
from .lifting import (
    LiftCertificate,
    LiftResult,
    is_liftable,
    lift_from_unfolding,
    origin_span,
    restrict_field,
    restrictable,
)
from .derlog import (
    DescentResult,
    Divisor,
    TangentFields,
    augment_field,
    augment_field_div,
    augment_map,
    augment_unfolding,
    derlog_strict,
    derlog_tangent,
    descend_field,
    discriminant,
    euler_field,
    last_component_ideal,
    poly_gcd,
    poly_lcm,
    squarefree_part,
    tangency_quotient,
)
from .exprio import parse_poly
from .manifest import Manifest, load_manifest

__version__ = "0.1.0"
