"""Integer kappa-polynomial kernel."""

# a submodule, so that wshbench's tracer, which wraps calls into wsh._poly
# but not calls within wsh._poly.*, leaves pgcd's inner calls unwrapped
from ._pure import (
    BACKEND,
    padd,
    pcontent,
    pdivexact,
    pgcd,
    pmul,
    pneg,
    pnormalize,
    ppseudo_rem,
    pprimitive,
    pscale,
    psub,
)
