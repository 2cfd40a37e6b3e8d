"""Core causal-inference framework for network experiments.

This subpackage implements the statistical machinery from Section 2 and
Appendix B of the paper:

* units and outcome tables (:mod:`repro.core.units`)
* randomized treatment assignment (:mod:`repro.core.assignment`)
* estimands: ``tau(p)``, TTE, spillover, partial effects
  (:mod:`repro.core.estimands`)
* estimators: difference in means, quantile treatment effects
  (:mod:`repro.core.estimators`)
* experiment designs (:mod:`repro.core.designs`)
* the regression-based analysis pipeline (:mod:`repro.core.analysis`)
"""
