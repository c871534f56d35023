"""Spectral statistics of anticommutators of random matrix ensembles.

Tools for sampling structured real symmetric ensembles, forming the
anticommutator {A, B} = AB + BA (and its higher-order analogues),
and comparing empirical spectra against exact limiting moments,
closed-form densities, and blip-scale corrections.

Subpackages are plain modules; import what you need:

    ensembles       matrix samplers, seeding, CSV dump
    matops          anticommutators and their eigenvalues
    spectra         histograms and normalized moment summaries
    combinatorics   exact limiting moments via several independent routes
    densities       closed-form limiting densities and their tabulation
    blips           outlier-band measures, their exact limits, norm checks
    stats           pair specs, experiment plans, trial runners, convergence scans
    cli             command-line front end (installed as ``antispectra``)
"""

__version__ = "0.1.0"

__all__ = [
    "ensembles",
    "matops",
    "spectra",
    "combinatorics",
    "densities",
    "blips",
    "stats",
    "cli",
]
