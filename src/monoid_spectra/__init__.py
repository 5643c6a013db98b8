"""Spectra of finitely presented commutative monoids: ideal systems, module
systems on the quotient groupoid, valuation overmonoids, and the finite
Zariski-type topologies they generate, with mechanical verification suites."""

from .monoid import (INF, CarrierMismatch, Monoid, Overmonoid, ParseError,
                     adjoin, as_overmonoid, fraction_ideal, localize,
                     monoid_from_file, monoid_from_json)
from .errors import UnsupportedRealization
from .idealsys import (IdealSystem, RIdeal, check_ideal_axioms,
                       enumerate_ideals, enumerate_primes, s_system,
                       spec_subbasis)
from .modsys import (DeltaFamily, ModuleSystem, SystemSpace, example16,
                     family_from_file, iota, meet, phi, r_delta)
from .valuation import (ValuationDescriptor, delta, enumerate_overmonoids,
                        enumerate_zar, is_s_pruefer, is_valuation)
from .fintop import FiniteSpace
from .report import Check, SuiteReport

__version__ = "0.1.0"
