"""Core causal-inference framework for network experiments.

This subpackage implements the statistical machinery from Section 2 and
Appendix B of the paper:

* outcome tables and grouped means (:mod:`repro.core.units`)
* switchback interval randomization (:mod:`repro.core.assignment`)
* estimands: ``tau(p)``, TTE, spillover, partial effects
  (:mod:`repro.core.estimands`)
* estimators: difference in means, cluster-robust variances, relative
  effects (:mod:`repro.core.estimators`)
* experiment designs (:mod:`repro.core.designs`)
* the regression-based analysis pipeline (:mod:`repro.core.analysis`)
"""
