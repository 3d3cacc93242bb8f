"""Anticommuting matrix systems and quadratic harmonic morphisms.

The submodules group by object kind; names that collide across kinds
(direct_sum, from_clifford, ...) stay namespaced:

* :mod:`quadmorph.clifford` - symmetric anticommuting square roots of I
* :mod:`quadmorph.osystem`  - orthogonal transpose-anticommuting tuples
* :mod:`quadmorph.orthomul` - norm-multiplying bilinear maps
* :mod:`quadmorph.qhm`      - quadratic harmonic morphisms
* :mod:`quadmorph.serialize` - JSON interchange documents
* :mod:`quadmorph.cli`      - the ``quadmorph`` command
"""

__version__ = "0.1.0"

from . import clifford, core, errors, generators, orthomul, osystem, qhm, serialize
from .clifford import (
    CliffordSystem,
    EquivalenceStatus,
    EquivalenceVerdict,
    algebraically_equivalent,
    construct_irreducible,
    is_irreducible,
    minimal_domain_dimension,
    symmetric_commutant_dimension,
    to_standard_representation,
    verify_clifford,
)
from .core import IDENTITY_TOL, spectral_decompose
from .errors import QuadmorphError, VerificationError
from .orthomul import (
    OrthogonalMultiplication,
    hopf_construction,
    multiply,
    standard_multiplication,
    verify_orthomul,
)
from .osystem import OSystem, SigmaDecomposition, construct_range_maximal, hurwitz_radon, verify_osystem
from .qhm import (
    ClassificationReport,
    NormalForm,
    QuadraticHarmonicMorphism,
    SingleFunctionRepresentation,
    classify,
    count_biequivalence_classes,
    evaluate,
    normal_form,
    project_nonsingular,
    range_extend,
    single_function_representation,
    sphere_restriction_check,
    verify_isoparametric,
    verify_qhm,
)

__all__ = [
    "__version__",
    "clifford", "core", "errors", "generators", "orthomul", "osystem", "qhm", "serialize",
    "CliffordSystem", "EquivalenceStatus", "EquivalenceVerdict",
    "algebraically_equivalent", "construct_irreducible", "is_irreducible",
    "minimal_domain_dimension", "symmetric_commutant_dimension",
    "to_standard_representation", "verify_clifford",
    "IDENTITY_TOL", "spectral_decompose",
    "QuadmorphError", "VerificationError",
    "OrthogonalMultiplication", "hopf_construction", "multiply",
    "standard_multiplication", "verify_orthomul",
    "OSystem", "SigmaDecomposition", "construct_range_maximal", "hurwitz_radon",
    "verify_osystem",
    "ClassificationReport", "NormalForm", "QuadraticHarmonicMorphism",
    "SingleFunctionRepresentation", "classify", "count_biequivalence_classes",
    "evaluate", "normal_form", "project_nonsingular", "range_extend",
    "single_function_representation", "sphere_restriction_check",
    "verify_isoparametric", "verify_qhm",
]
