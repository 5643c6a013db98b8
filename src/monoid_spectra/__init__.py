"""Spectra of finitely presented commutative monoids: ideal systems, module
systems on the quotient groupoid, valuation overmonoids, and the finite
Zariski-type topologies they generate, with mechanical verification suites."""

from .monoid import (INF, CarrierMismatch, DeltaFamily, Monoid, Overmonoid,
                     ParseError, adjoin, as_overmonoid, family_from_file,
                     fraction_ideal, localize, monoid_from_file,
                     monoid_from_json)
from .errors import UnsupportedRealization
from .idealsys import (IdealSystem, RIdeal, check_ideal_axioms,
                       enumerate_ideals, enumerate_primes, s_system,
                       spec_subbasis)
from .modsys import ModuleSystem, SystemSpace, example16, iota, meet
from .valuation import (ValuationDescriptor, WindowRead, delta,
                        enumerate_overmonoids, enumerate_zar, is_s_pruefer,
                        is_valuation)
from .fintop import FiniteSpace
from .report import Check, SuiteReport

__version__ = "0.1.0"
