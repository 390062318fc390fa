"""Spectral laboratory for hermitian bundle curvature on periodic model domains.

Subsystems: spectral grid calculus (grid), bundle-valued form algebra
(exterior), metrics/connections/curvature (metric, hermitian), quantitative
positivity (positivity), the del-dbar identity harness (bochner), weighted
minimal-norm dbar solves (hormander), singular metrics and their regularized
solve pipeline (singular), model weights (weights), serialization (io), and
the experiment runner (cli).
"""

__version__ = "0.1.0"
