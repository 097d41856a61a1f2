"""Defaults of every EM entry point, of ``nnmix em`` and of the EM experiments.

They live apart from :mod:`nnmix.em` so that the command-line parser and
``harness.ExperimentConfig`` read them without loading numpy; ``em.TOL`` and
the others are these same values.
"""

MAX_ITER = 2000   # EM-map evaluations per run
TOL = 1e-10       # stop once a plain EM step moves P by less than this (max entrywise)
CRIT_TOL = 1e-6   # relative criticality tolerance (see ``em.is_critical``)
POLISH_ITER = 10**4  # EM-map evaluations allowed to converge an unconverged best restart
RESTARTS = 100    # EM runs from random starts behind one maximizer estimate
