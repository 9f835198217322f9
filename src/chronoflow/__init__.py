"""Chronoflow: flows of time-structured polynomial vector fields as operators.

Exact polynomial fields and observables, deterministic RK4 flow maps with
pushforwards, truncated Volterra expansions with remainder-order probes,
iterated Lie and flow brackets with their asymptotics, parameter
derivatives of flows, and a bracket-generating reachability planner.

Startup: ``import chronoflow`` loads only ``errors``, ``fields``, ``flow``
and ``quadrature``.  The operation modules ``chrono``, ``liealg``,
``paramflow`` and ``reach`` load on first access to one of their names
(``chronoflow.plan_reach`` loads ``reach``, which loads ``liealg`` when a
bracket is first built, and ``liealg`` loads ``chrono`` for its order
probes).  On the command line, ``flow`` loads none of them; ``volterra``
and ``order-probe --residual remainder`` load ``chrono``; the other
residuals load ``chrono`` and ``liealg``; ``bracket`` and ``flow-bracket``
load ``liealg``; ``param-deriv`` loads ``paramflow``; ``simulate`` loads
``reach``; ``rank`` and ``plan`` load ``reach`` and ``liealg``.
"""
from importlib import import_module as _import_module

from .errors import (
    BlowUpError,
    ChronoflowError,
    DefectExhaustedError,
    DegenerateProbe,
    DimensionError,
    PlannerPreconditionError,
    StalledError,
    TimeWindowError,
)
from .fields import (
    LocallyBoundedWitness,
    Observable,
    PolynomialMap,
    VectorField,
    add_fields,
    apply_lift,
    as_point,
    brockett_fields,
    builtin_system,
    constant_field,
    eval_field,
    field_jacobian,
    finite_difference_jacobian,
    heisenberg_fields,
    iterate_lift,
    linear_field,
    load_system,
    observable_from_json,
    rotation2d,
    sample_lift_bound,
    unicycle_fields,
    vector_field_from_json,
    zero_field,
)
from .flow import (
    FlowMap,
    FlowSolver,
    NumericalField,
    flow_map,
    flow_operator_apply,
    flow_pushforward,
    flow_time_dependent,
    flow_with_pushforward,
    inverse_flow,
    pushforward_field,
)

# The operation modules load on first attribute access (PEP 562).  Nothing
# is cached here: every access reads the submodule's current binding.
_LAZY = {
    name: module
    for module, names in {
        "chrono": (
            "OrderEstimate", "RemainderReport", "SeriesTerm",
            "integral_equation_residual", "order_probe", "remainder_eval",
            "simplex_integral_term", "simplex_volume", "volterra_truncate",
        ),
        "liealg": (
            "BracketExpression", "FlowBracketProgram", "adjoint_check",
            "bracket_asymptotics_check", "commutator_decomposition_residual",
            "eval_bracket_expression", "flow_bracket", "inverse_expansion_check",
            "lie_bracket", "lie_bracket_field", "pushforward_invariance_check",
        ),
        "paramflow": (
            "IN_FORMULA", "OUT_FORMULA", "PerturbedSystem", "fd_param_derivative",
            "param_derivative", "variation_of_parameters_check",
        ),
        "reach": (
            "AffineControlSystem", "ControlSchedule", "PlanResult", "RankReport",
            "Segment", "bracket_motion", "bracket_rank", "canonical_bracket_basis",
            "plan_reach", "simulate_schedule",
        ),
    }.items()
    for name in (module, *names)
}


def __getattr__(name: str):
    try:
        module = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    loaded = _import_module(f"{__name__}.{module}")
    return loaded if name == module else getattr(loaded, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})


__version__ = "0.1.0"
__all__ = sorted(name for name in __dir__() if not name.startswith("_"))
