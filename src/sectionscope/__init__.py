"""sectionscope: regularized CR3BP dynamics, open-book return maps, and
periodic-orbit search."""

__version__ = "0.1.0"

from .cr3bp import (EARTH_MOON_MU, LagrangePointSet, StarkZeemanSystem,
                    check_assumptions, cr3bp_stark_zeeman,
                    effective_potential, hamiltonian, hill_components,
                    hill_membership, lagrange_points, primaries,
                    sample_page_states, sample_shell_states)
from .errors import SectionScopeError
from .flows import (FlowEvent, IntegratorConfig, Trajectory, integrate,
                    integrate_many)
from .orbits import (PeriodicOrbit, continue_family, find_periodic_point,
                     find_symmetric_planar_orbit, floquet_multipliers,
                     reciprocal_pair_residual)
from .regularize import (MoserChart, chart_to_stereo, kepler_oracles,
                         levi_civita, stereo_to_chart)
from .sections import (ReturnSample, SectionSpec, ellipsoid_flow,
                       ellipsoid_page_rotation, exactness_loop_check,
                       geodesic_angle, hopf_map, involution, leaf_label,
                       leaf_label_physical, physical_angle, return_map,
                       return_map_jacobian, return_map_many,
                       transversality_value)
