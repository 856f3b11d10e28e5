"""incidencelab: exact experiments in point-line incidence geometry over
prime fields.

The package provides exact F_p arithmetic, affine/projective plane
primitives, incidence counting engines, instance generators, the two-pencil
grid extraction and covering loop with verifiable certificates, collision
energy and sum-product image sets, distance and determined-line reports,
and a sweep harness with log-log exponent fitting.

Importing the package runs no submodule.  The exported names resolve on
first access (PEP 562).  The submodules ``constructions``, ``cover``,
``distances`` and ``energy`` are in ``sys.modules`` from the start, so tools
that look modules up there by name find them, but each runs only on first
attribute access: a command loads only the layers it uses.
"""

import importlib
import importlib.util
import sys

_EXPORTS = {
    "field": ("PrimeModulus", "is_prime", "is_square", "inv_mod", "inv_mod_array", "make_modulus",
              "minus_one_is_square", "sqrt_mod"),
    "plane": ("AffineLine", "AffinePoint", "Instance", "ProjMap", "apply_map", "dualize",
              "incident", "line_through", "projective_map_from_pair", "vertical_line"),
    "incidence": ("CountStats", "HypothesisReport", "PlaneInstance3D", "RichnessHistogram",
                  "check_hypotheses", "count_incidences", "count_point_plane", "kernel_backend",
                  "max_collinear_3d", "reference_bound", "richness_histograms", "warm_up_kernels",
                  "within_combinatorial_bound"),
    "constructions": ("SeededStream", "cartesian_instance", "elekes_construction", "full_plane",
                      "pencil", "random_instance"),
    "cover": ("GridCertificate", "NormalizedGrid", "PencilGrid", "RichnessPartition",
              "VerificationReport", "grid_cover", "normalize_grid", "richness_partition",
              "two_pencil_extract", "verify_certificate"),
    "energy": ("EnergyCount", "SumProdReport", "arithmetic_image", "cs_bridge_check",
               "energy_reduction", "line_energy", "sumproduct_report"),
    "distances": ("BeckReport", "DistanceReport", "bisector_instance", "determined_lines",
                  "distance", "distance_sets", "isosceles_triples", "isotropic_lines"),
    "harness": ("FitResult", "SweepConfig", "SweepRecord", "fit_exponent", "read_instance",
                "run_sweep", "write_instance"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)

__version__ = "0.1.0"


def _register_lazy(module: str) -> None:
    spec = importlib.util.find_spec(f"{__name__}.{module}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    lazy = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = lazy
    spec.loader.exec_module(lazy)
    globals()[module] = lazy


for _module in ("constructions", "cover", "distances", "energy"):
    _register_lazy(_module)
del _module


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)
