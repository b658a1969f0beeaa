"""A test-only potential defect for the static-residual checks."""

from dataclasses import dataclass
from functools import cached_property

from kottler_imcf import KottlerBackground


@dataclass(frozen=True)
class PerturbedPotential(KottlerBackground):
    """A background whose potential is V * (1 + eps/rho): an
    asymptotics-preserving defect for residual tests.  V and its derivatives
    are those of the unperturbed background."""

    eps: float = 0.0

    @classmethod
    def of(cls, background, eps):
        return cls(background.base, background.mass, background.horizon_rho, eps)

    @cached_property
    def unperturbed(self):
        return KottlerBackground(self.base, self.mass, self.horizon_rho)

    def potential(self, rho):
        return self.unperturbed.potential(rho) * (1.0 + self.eps / rho)

    def potential_d1(self, rho):
        b = self.unperturbed
        return b.potential_d1(rho) * (1.0 + self.eps / rho) - b.potential(rho) * self.eps / rho**2

    def potential_d2(self, rho):
        b = self.unperturbed
        return (
            b.potential_d2(rho) * (1.0 + self.eps / rho)
            - 2.0 * b.potential_d1(rho) * self.eps / rho**2
            + 2.0 * b.potential(rho) * self.eps / rho**3
        )
