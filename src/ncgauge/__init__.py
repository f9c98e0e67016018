"""Desk-scale verification lab for gauge theory on noncommutative 2-tori
with real multiplication.

Layers: exact real-quadratic arithmetic (quadfield), the noncommutative
torus and its canonical calculus (torus), grid-realized Heisenberg sectors
with the graded product and twisted derivations (heisenberg), the gauge
layer with the q-adaptedness tests (gauge), and lazy Sweedler/Hochschild
cohomology of crossed products (hopf).

Importing the package loads no layer.  Each public name is looked up in
its layer on every read (PEP 562 `__getattr__`), which imports that layer
on the first one, so a CLI suite loads only the layers it runs: `pell`,
`stabilizer` and `monopole` run without numpy.  The lookup is not cached
here, so a name always reads its layer's current binding.
"""

import importlib

_LAYERS = {
    "quadfield": (
        "GOLDEN", "ONE_PLUS_SQRT3", "SQRT2", "FieldElement", "OrderUnit",
        "QuadraticIrrational", "StabilizerMatrix", "ThetaContext", "classify",
        "norm", "pell_unit", "phi", "phi_inverse", "unit_power_data",
    ),
    "torus": ("Form", "TorusElement", "d_B", "d_B1", "wedge"),
    "heisenberg": (
        "GradedElement", "GridSpec", "HeisenbergElement", "gaussian", "left_act",
        "mul_P", "partial", "random_packet", "right_act", "sigma", "star_P",
    ),
    "gauge": (
        "GaugePotential", "HorizontalForm", "QCalculus", "adaptedness_test",
        "apply_potential", "field_strength", "gauge_transform", "nabla0", "q_number",
        "relative_adaptedness_test", "vertical_derivative",
    ),
    "hopf": (
        "ConvolutionElement", "FiniteHopf", "ModuleAlgebra", "check_hochschild_cocycle",
        "check_sweedler_cocycle", "coboundary_H", "coboundary_S", "conj_action", "conv_star",
        "convolve", "curvature_map", "cycle_instance", "cyclic_group_hopf", "function_instance",
        "hochschild_systems", "jet_instance", "mc_cocycle", "solve_hochschild_space",
    ),
}
_HOME = {name: layer for layer, names in _LAYERS.items() for name in names}
_SUBMODULES = frozenset(_LAYERS) | {"cli"}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _HOME:
        return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
