"""incidencelab: exact experiments in point-line incidence geometry over
prime fields.

The package provides exact F_p arithmetic, affine/projective plane
primitives, incidence counting engines, instance generators, the two-pencil
grid extraction and covering loop with verifiable certificates, collision
energy and sum-product image sets, distance and determined-line reports,
and a sweep harness with log-log exponent fitting.

Importing the package runs no submodule.  The exported names resolve on
first access (PEP 562).  The submodules ``bounds`` (reference bounds and
hypothesis checks), ``constructions``, ``cover``, ``distances``, ``energy``
(energy, sum-product and the point-plane side of F_p^3) and ``harness``
(sweeps and fits) are in ``sys.modules`` from the start, so tools that look
modules up there by name find them, but each runs only on first attribute
access: a command loads only the layers it uses.  ``cli`` imports
``files`` (instance, energy and 3D files), ``plane``, ``field`` and
``incidence`` (the counts, the degrees and ``max_collinear_3d``), and a
``count`` runs no other submodule.
"""

import importlib
import importlib.util
import sys

_EXPORTS = {
    "field": ("PrimeModulus", "is_prime", "is_square", "inv_mod", "inv_mod_array", "make_modulus",
              "minus_one_is_square", "sqrt_mod"),
    "plane": ("AffineLine", "AffinePoint", "Instance", "ProjMap", "apply_map", "dualize",
              "incident", "line_through", "projective_map_from_pair", "vertical_line"),
    "incidence": ("CountStats", "RichnessHistogram", "count_incidences", "kernel_backend",
                  "max_collinear_3d", "richness_histograms"),
    "bounds": ("HypothesisReport", "check_hypotheses", "reference_bound", "within_combinatorial_bound"),
    "constructions": ("SeededStream", "cartesian_instance", "elekes_construction", "full_plane",
                      "random_instance"),
    "cover": ("GridCertificate", "NormalizedGrid", "PencilGrid", "RichnessPartition",
              "VerificationReport", "grid_cover", "normalize_grid", "richness_partition",
              "two_pencil_extract", "verify_certificate"),
    "energy": ("EnergyCount", "PlaneInstance3D", "SumProdReport", "arithmetic_image",
               "count_point_plane", "cs_bridge_check", "energy_reduction", "line_energy",
               "sumproduct_report"),
    "distances": ("BeckReport", "DistanceReport", "bisector_instance", "determined_lines",
                  "distance_sets", "isosceles_triples", "isotropic_lines"),
    "files": ("read_instance", "write_instance"),
    "harness": ("FitResult", "SweepConfig", "fit_exponent", "run_sweep"),
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


for _module in ("bounds", "constructions", "cover", "distances", "energy", "harness"):
    _register_lazy(_module)
del _module


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)
