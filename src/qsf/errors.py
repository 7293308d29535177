"""Exception hierarchy shared across the package."""


class QsfError(Exception):
    """Base class for all package errors."""


class QuadratureError(QsfError):
    """Adaptive quadrature failed to reach the requested tolerance."""


class ConvergenceError(QsfError):
    """A Monte Carlo estimate came out non-finite."""


class ConfigError(QsfError):
    """Invalid or malformed experiment configuration."""


class DivergenceError(QsfError):
    """The gradient tracker blew up; carries diagnostics of the failing step.

    Attributes
    ----------
    iteration : outer-loop index at which the guard tripped
    perturbation : perturbation vector of the failing block
    cost : last observed cost sample
    z : tracker value at failure
    """

    def __init__(self, iteration, perturbation, cost, z):
        self.iteration = iteration
        self.perturbation = perturbation
        self.cost = cost
        self.z = z
        super().__init__(
            f"gradient tracker diverged at iteration {iteration}: "
            f"|Z| max = {max(abs(v) for v in z):.3e}, last cost = {cost!r}"
        )
