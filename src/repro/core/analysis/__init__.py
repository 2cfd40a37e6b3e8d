"""Statistical analysis pipeline for experiments at scale.

This subpackage implements Appendix B of the paper:

1. Aggregate per-session outcomes to the hourly level
   (:mod:`repro.core.analysis.aggregation`).
2. Fit an OLS regression of the hourly means on a treatment indicator with
   hour-of-day fixed effects (:mod:`repro.core.analysis.regression`).
3. Compute Newey-West heteroskedasticity-and-autocorrelation-consistent
   standard errors with a lag of two hours
   (:mod:`repro.core.analysis.newey_west`).
4. Report the treatment coefficient, normalized to the global control
   condition (:mod:`repro.core.analysis.pipeline`).

It also provides power calculations (:mod:`repro.core.analysis.power`) and
SUTVA/interference diagnostics (:mod:`repro.core.analysis.interference`).
"""
