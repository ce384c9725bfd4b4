"""Numerical toolkit for discounted stochastic control with delays.

Modules:
    core       grids, lifted states, kernels, problem data
    operators  shift semigroup, dissipative generator, weak norm, Gram spectrum
    sdde       Euler-Maruyama simulation of the delay equation, costs
    lift       mild simulation in the lifted space, agreement reports
    hjb        lag-chain reduction, modified policy iteration, probes, feedback
    models     portfolio and advertising constructors, affine test family
    output     CSV, SVG and run-manifest writers
    cli        command line entry point

Names are imported from their modules (from delayopt.core import LiftedState).
"""

__version__ = "0.1.0"
