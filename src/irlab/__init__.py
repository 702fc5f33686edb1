"""irlab: Groebner engine and local-cohomology invariants for the index of
reducibility of parameter ideals over prime fields.

The public surface re-exported here is what the CLI and the test suite build
on; see the README for a tour.  The invariants travel as plain values: a
`Ring` carries its characteristic as the int `p`, and `socle_dimensions`
returns the tuple (s_0, ..., s_d).  No re-export shadows a submodule: the ring
constructor is `irlab.ring.ring`, so `irlab.ring` stays the module.
"""

from .cohomology import (AnnihilatorData, annihilator_data, cm_flags,
                         hochster_hilbert, local_cohomology_hilbert,
                         socle_dimensions)
from .errors import (IrlabError, MethodDisagreement, NotArtinianError,
                     PolynomialParseError, PreconditionError,
                     ResourceBudgetExceeded, RingMismatchError, SearchExhausted,
                     ZeroModuleError)
from .filtration import (DimensionFiltration, classify_sequential,
                         dimension_filtration, is_good_sop,
                         monomial_primary_decomposition, unmixed_component)
from .groebner import GroebnerBasis, Ideal, buchberger, maximal_ideal, unit_ideal
from .modules import (FreeResolution, Module, minimalize_complex,
                      subquotient_presentation, taylor_resolution)
from .params import (IrResult, ParameterSystem, Rng, construct_c_sop,
                     find_parameter_element, index_of_reducibility,
                     is_d_sequence, is_system_of_parameters)
from .ring import Poly, Ring, grevlex_key, monomials_of_degree, parse_polynomial
from .stable import (LimitProfile, StableValueReport, formula_dim3,
                     formula_gcm, formula_seq, goto_suzuki_bound,
                     limit_profile, stability_suite, stable_value)

__version__ = "0.1.0"
