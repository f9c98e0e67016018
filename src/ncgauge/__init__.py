"""Desk-scale verification lab for gauge theory on noncommutative 2-tori
with real multiplication.

Layers: exact real-quadratic arithmetic (quadfield), the noncommutative
torus and its canonical calculus (torus), grid-realized Heisenberg sectors
with the graded product and twisted derivations (heisenberg), the gauge
layer with the q-adaptedness tests (gauge), and lazy Sweedler/Hochschild
cohomology of crossed products (hopf).
"""

from .quadfield import (
    GOLDEN,
    ONE_PLUS_SQRT3,
    SQRT2,
    FieldElement,
    OrderUnit,
    QuadraticIrrational,
    StabilizerMatrix,
    ThetaContext,
    classify,
    norm,
    pell_unit,
    phi,
    phi_inverse,
    unit_power_data,
)
from .torus import Form, OneFormB, TorusElement, TwoFormB, d_B, d_B1, wedge
from .heisenberg import (
    GradedElement,
    GridSpec,
    HeisenbergElement,
    gaussian,
    left_act,
    mul_P,
    partial,
    random_packet,
    right_act,
    sigma,
    star_P,
)
from .gauge import (
    GaugePotential,
    HorizontalForm,
    QCalculus,
    adaptedness_test,
    apply_potential,
    field_strength,
    gauge_transform,
    nabla0,
    q_number,
    relative_adaptedness_test,
    vertical_derivative,
)
from .hopf import (
    ConvolutionElement,
    FiniteHopf,
    ModuleAlgebra,
    check_hochschild_cocycle,
    check_sweedler_cocycle,
    coboundary_H,
    coboundary_S,
    conj_action,
    conv_star,
    convolve,
    curvature_map,
    cycle_instance,
    cyclic_group_hopf,
    function_instance,
    jet_instance,
    mc_cocycle,
    solve_hochschild_space,
)

__version__ = "0.1.0"
