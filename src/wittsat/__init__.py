"""CNF satisfiability through an exact null-plane term algebra, sign-pattern
covers of the assignment hypercube, and orthogonal-matrix geometry."""

__version__ = "0.1.0"
