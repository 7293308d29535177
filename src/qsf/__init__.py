"""q-Gaussian smoothed-functional optimization.

Gradient-free stochastic optimization driven by heavy-tailed (or compactly
supported) perturbations, with a two-timescale projected update loop and a
two-node feedback queueing network as the reference black box.

The API lives in the submodules (``qsf.qgauss``, ``qsf.sfgrad``,
``qsf.optimizer``, ``qsf.queuesim``, ``qsf.harness``, ``qsf.rng``,
``qsf.errors``); import names from them.
"""

__version__ = "0.1.0"
