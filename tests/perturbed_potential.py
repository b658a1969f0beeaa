"""A test-only potential defect for the static-residual checks."""


class PerturbedPotential:
    """V * (1 + eps/rho): an asymptotics-preserving defect for residual tests."""

    def __init__(self, background, eps):
        self.background = background
        self.eps = eps

    def value(self, rho):
        return self.background.potential(rho) * (1.0 + self.eps / rho)

    def d1(self, rho):
        b = self.background
        return b.potential_d1(rho) * (1.0 + self.eps / rho) - b.potential(rho) * self.eps / rho**2

    def d2(self, rho):
        b = self.background
        return (
            b.potential_d2(rho) * (1.0 + self.eps / rho)
            - 2.0 * b.potential_d1(rho) * self.eps / rho**2
            + 2.0 * b.potential(rho) * self.eps / rho**3
        )
