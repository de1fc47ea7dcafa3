"""Planar direction-consistent embeddings of labeled paths on convex point sets.

A path whose edges carry U/D/L/R labels is embedded on a point set in
convex position so that the straight-line drawing is crossing-free and
every edge points strictly the way its label says. The package provides
constructive embedders for the always-solvable regimes, a quadratic
decision procedure for the general four-label case, exhaustive oracles
for ground truth at small sizes, and a command line interface. Seeded
instances of every set class come from one module, generate.
"""

from . import errors, geometry, generate, paths, validator, embedder, decider, oracle, render
from .errors import *
from .geometry import *
from .generate import *
from .paths import *
from .validator import *
from .embedder import *
from .decider import *
from .oracle import *
from .render import *

__version__ = "0.1.0"

__all__ = (errors.__all__ + geometry.__all__ + generate.__all__ + paths.__all__ + validator.__all__
           + embedder.__all__ + decider.__all__ + oracle.__all__ + render.__all__)
