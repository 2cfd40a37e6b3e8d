"""Figure 1 (conceptual): A/B tests with and without congestion interference.

Regenerates the two worlds of the paper's Figure 1 with the fluid
simulator: when every unit has a dedicated link (no shared bottleneck) the
treatment and control curves are flat in the allocation and the A/B test
estimates the TTE; when units share a bottleneck the curves move with the
allocation and the A/B estimate is biased.
"""

from benchmarks._helpers import run_once

from repro.core.estimands import sutva_holds
from repro.netsim.fluid.application import Application
from repro.netsim.fluid.lab import run_isolated_sweep, run_lab_sweep


def _treatment(i):
    return Application(i, cc="reno", connections=2)


def _control(i):
    return Application(i, cc="reno", connections=1)


def test_fig1_no_interference_world(benchmark):
    sweep = run_once(benchmark, run_isolated_sweep, 10, _treatment, _control)
    curve = sweep.curve("throughput_mbps")
    assert sutva_holds(curve, tolerance=0.01, relative=True)
    # Without interference the A/B estimate equals the TTE at any allocation.
    assert abs(curve.ate(0.5) - curve.tte()) < 1e-6
    print("\nFigure 1a (no interference): mu_T and mu_C are flat in the allocation")
    for p in (0.1, 0.5, 0.9):
        print(f"  p={p:.1f}  mu_T={curve.mu_treatment(p):8.1f}  mu_C={curve.mu_control(p):8.1f}")


def test_fig1_interference_world(benchmark):
    sweep = run_once(benchmark, run_lab_sweep, 10, _treatment, _control)
    curve = sweep.curve("throughput_mbps")
    assert not sutva_holds(curve, tolerance=0.01, relative=True)
    # With interference the A/B estimate is far from the (zero) TTE.
    assert abs(curve.ate(0.5) - curve.tte()) > 100.0
    print("\nFigure 1b (interference): the curves move with the allocation")
    for p in (0.1, 0.5, 0.9):
        print(f"  p={p:.1f}  mu_T={curve.mu_treatment(p):8.1f}  mu_C={curve.mu_control(p):8.1f}")
