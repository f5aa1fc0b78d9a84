"""Disclosure equilibria in consumer-search markets.

Solvers for the unique symmetric disclosure equilibrium with savvy and
costly searchers, duality certificates of firm optimality, welfare and
comparative-statics tooling, and a seeded Monte Carlo market simulator.
"""

__version__ = "0.1.0"

__all__ = [
    "PiecewiseLinearPrior", "PowerPrior", "Prior", "TruncatedMoments", "UniformPrior", "prior_from_json",
    "AffinePower", "Flat", "FullDisclosure", "PosteriorDistribution", "full_disclosure_distribution", "point_mass",
    "Candidate", "build_candidate", "build_g", "candidate_exists", "solve_beta",
]


def __getattr__(name: str):
    """The re-exports, loaded on first use (PEP 562): importing the package,
    as `python -m disclose_eq` does before its __main__ runs, loads no numpy."""
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .priors import (
        PiecewiseLinearPrior,
        PowerPrior,
        Prior,
        TruncatedMoments,
        UniformPrior,
        prior_from_json,
    )
    from .posterior import (
        AffinePower,
        Flat,
        FullDisclosure,
        PosteriorDistribution,
        full_disclosure_distribution,
        point_mass,
    )
    from .candidate import (
        Candidate,
        build_candidate,
        build_g,
        candidate_exists,
        solve_beta,
    )

    exports = locals()
    globals().update((key, exports[key]) for key in __all__)
    return exports[name]
