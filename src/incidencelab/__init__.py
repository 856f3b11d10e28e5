"""incidencelab: exact experiments in point-line incidence geometry over
prime fields.

The package provides exact F_p arithmetic, affine/projective plane
primitives, incidence counting engines, instance generators, the two-pencil
grid extraction and covering loop with verifiable certificates, collision
energy and sum-product image sets, distance and determined-line reports,
and a sweep harness with log-log exponent fitting.
"""

from .field import (
    PrimeModulus,
    Scalar,
    is_prime,
    is_square,
    inv_mod,
    inv_mod_array,
    make_modulus,
    minus_one_is_square,
    sqrt_mod,
)
from .plane import (
    AffineLine,
    AffinePoint,
    Instance,
    ProjMap,
    ProjPoint,
    apply_map,
    dualize,
    embed,
    incident,
    line_through,
    projective_map_from_pair,
    translation_map,
    vertical_line,
    x_infinity,
    y_infinity,
)
from .incidence import (
    HypothesisReport,
    PlaneInstance3D,
    RichnessHistogram,
    check_hypotheses,
    count_incidences,
    count_point_plane,
    kernel_backend,
    max_collinear_3d,
    reference_bound,
    richness_histograms,
    warm_up_kernels,
    within_combinatorial_bound,
)
from .constructions import (
    SeededStream,
    cartesian_instance,
    elekes_construction,
    elekes_line_family,
    full_plane,
    pencil,
    random_instance,
)
from .cover import (
    GridCertificate,
    NormalizedGrid,
    PencilGrid,
    RichnessPartition,
    VerificationReport,
    grid_cover,
    normalize_grid,
    richness_partition,
    two_pencil_extract,
    verify_certificate,
)
from .energy import (
    EnergyCount,
    SumProdReport,
    arithmetic_image,
    cs_bridge_check,
    energy_reduction,
    line_energy,
    sumproduct_report,
)
from .distances import (
    BeckReport,
    DistanceReport,
    bisector_instance,
    determined_lines,
    distance,
    distance_sets,
    isosceles_triples,
    isotropic_lines,
)
from .harness import (
    FitResult,
    SweepConfig,
    SweepRecord,
    fit_exponent,
    read_instance,
    run_sweep,
    write_instance,
)

__version__ = "0.1.0"
