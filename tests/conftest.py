import pytest

import psyslab as ps


@pytest.fixture(scope="session")
def near_interface_spotcheck():
    """(violations, labels) of the 32-point spot check on data where a B
    label is possible: the wave u0 = -0.55, amplitude 0.5 at n=512 reaches
    u = -0.05, so a curve's growth bound is 21x, not the 2.31x of the
    other runs.  Run to 2 t*, it ends resolution_lost just past t*.  One
    run serves test_characteristics and acceptance criterion 9."""
    import psyslab.characteristics as characteristics
    quad = ps.PressureLaw.quadratic()
    t_star = ps.crossing_time_oracle(quad, -0.55, 0.5, 1)
    s0 = ps.simple_wave_state(quad, ps.PeriodicGrid(512), -0.55, 0.5, 1)
    traj = ps.run(quad, s0, 0.0, ps.SolverConfig(t_max=2.0 * t_star))
    labels = []
    label_of = characteristics.classify

    def recording(curve):
        labels.append(label_of(curve))
        return labels[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(characteristics, "classify", recording)
        violations = ps.dual_growth_spotcheck(traj, 32).violations
    return violations, labels
