"""Tracking time-varying quadratic minima with scalar LTI update rules.

The package builds random quadratic tracking scenarios whose minimizer
follows a linear stochastic signal model, provides three tracker
families (gradient descent, a steady-state filter design, and worst-case
peak-gain synthesis), and evaluates their steady-state cost analytically
and by simulation.  The `tracker` command line front end reproduces the
benchmark experiments as CSV files.
"""

__version__ = "0.1.0"
