"""qhydro: hydrodynamics of quantum state space.

Three threads, one toolkit: spin read as the circulation of the phase
velocity of polynomial wave functions; hydrodynamical identities of Killing
vector fields on chart-described Riemannian manifolds; and the Schrodinger
flow on projective space as a stationary perfect fluid whose pressure is
half the Hamiltonian variance.
"""

from .hilbert import (
    DegenerateSpectrumError,
    HermitianOperator,
    StateVector,
    dispersion_squared,
    evolve,
    expectation,
    hermitian_from_json,
    survival_probability,
)
from .riemann import (
    ChartBoundaryError,
    ChartManifold,
    DiscreteCurve,
    OneForm,
    ScalarField,
    TwoForm,
    VectorField,
    christoffel,
    clairaut_check,
    covariant_derivative,
    divergence,
    euler_residual,
    exterior_derivative_oneform,
    flat,
    flow_integrate,
    geodesic_integrate,
    lie_derivative_metric,
    lie_derivative_oneform,
    self_advection_identity_residual,
    sharp,
    surface_of_revolution,
)
from .projective import (
    GeodesicSphere,
    TangentAtPoint,
    chart_manifold,
    chart_of,
    dispersion_via_metric,
    fubini_study_distance,
    fubini_study_metric,
    fundamental_field,
)
from .fluid import (
    CriticalPoint,
    GradientCheckError,
    SphereProfile,
    TrajectoryReport,
    critical_points,
    pressure,
    pressure_gradient,
    schrodinger_trajectory,
    scalar_vorticity,
    vorticity_on_sphere,
    vorticity_transport_residual,
    zeno_decay,
)
from .spin import (
    CircleContour,
    ClusterAmbiguityError,
    ContourTooCloseError,
    NumericalBreakdownError,
    PolygonContour,
    SU2Element,
    SpinWaveFunction,
    VorticityDivisor,
    bohr_sommerfeld_check,
    circulation,
    madelung_velocity,
    su2_act,
    sz_apply,
    total_spin_circulation,
    vorticity_divisor,
    wavefunction_from_json,
)

__version__ = "0.1.0"
