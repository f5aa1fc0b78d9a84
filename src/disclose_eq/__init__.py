"""Disclosure equilibria in consumer-search markets.

Solvers for the unique symmetric disclosure equilibrium with savvy and
costly searchers, duality certificates of firm optimality, welfare and
comparative-statics tooling, and a seeded Monte Carlo market simulator.
"""

__version__ = "0.1.0"

from .priors import (  # noqa: F401
    PiecewiseLinearPrior,
    PowerPrior,
    Prior,
    TruncatedMoments,
    UniformPrior,
    prior_from_json,
)
from .posterior import (  # noqa: F401
    AffinePower,
    Flat,
    FullDisclosure,
    PosteriorDistribution,
    full_disclosure_distribution,
    point_mass,
)
from .candidate import (  # noqa: F401
    Candidate,
    build_candidate,
    build_g,
    candidate_exists,
    solve_beta,
)
