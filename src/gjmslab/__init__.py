"""gjmslab: a numerical laboratory for the fractional conformal operators on
hyperbolic space -- their Gamma-ratio spectral symbols, the radial
spherical-transform calculus, conformal bubble asymptotics, and
Poincare-Sobolev quotient minimization.

The package exports only __version__, so `import gjmslab` loads no numpy;
import the modules (gjmslab.spherical, gjmslab.quotients, ...) for the rest.
"""

__version__ = "0.1.0"
