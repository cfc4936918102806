import inspect
import io
import math
import os
import subprocess
import sys
import traceback
from pathlib import Path

import numpy as np
import pytest

from anelor.dynamics import (
    LORENZ_LABELS,
    REDUCED_LABELS,
    IntegrationError,
    Trajectory,
    _A,
    _B,
    _LORENZ,
    _SYSTEMS,
    _dense_output,
    _dopri45,
    _stepper,
    _System,
    _tangent_rhs,
    amplitude_trend,
    integrate_lorenz,
    integrate_reduced,
    largest_lyapunov,
    log_norm_slope,
    lorenz_rhs,
    map_trajectory,
    reduced_rhs,
)
from anelor.lorenz import LorenzParams, critical_rayleigh, scale_to_lorenz
from anelor.params import PhysicalParams
from anelor.projection import GalerkinCoeffs, closed_form_coefficients

ROOT2 = math.sqrt(2.0)


def make_params(beta=0.0, prandtl=10.0, rayleigh=1.0, gamma=4.0 / 3.0,
                length=2.0 * ROOT2):
    return PhysicalParams(beta=beta, prandtl=prandtl, rayleigh=rayleigh,
                          gamma=gamma, length=length)


def origin_growth_rate(lp):
    return (-(lp.sigma + 1.0)
            + math.sqrt((lp.sigma + 1.0) ** 2 + 4.0 * lp.sigma * (lp.r - 1.0))) / 2.0


def synthetic_trajectory(rate=0.3, samples=101, t_end=10.0):
    times = np.linspace(0.0, t_end, samples)
    states = np.exp(rate * times)[:, None] * np.array([1.0, 2.0, 2.0])
    return Trajectory(times, states, REDUCED_LABELS, 1e-10, 1e-12, 0)


def test_initial_sample_is_the_initial_condition():
    lp = LorenzParams(10.0, 8.0 / 3.0, 2.0)
    traj = integrate_lorenz(lp, [1.0, -2.0, 0.5], 5.0)
    assert traj.times[0] == 0.0
    assert traj.times[-1] == 5.0
    assert traj.times.size == 801
    assert np.array_equal(traj.initial, [1.0, -2.0, 0.5])
    assert traj.labels == LORENZ_LABELS
    assert np.all(np.diff(traj.times) > 0.0)
    assert traj.nfev > 0


def test_zero_state_stays_zero():
    coeffs = closed_form_coefficients(make_params(rayleigh=1000.0))
    traj = integrate_reduced(coeffs, [0.0, 0.0, 0.0], 10.0)
    assert np.all(traj.states == 0.0)
    assert traj.labels == REDUCED_LABELS


def test_rhs_helpers_match_the_equations():
    e = np.arange(1.0, 8.0)
    state = np.array([2.0, -1.0, 3.0])
    expected = [e[0] * 2.0 + e[1] * -1.0,
                e[2] * 2.0 * 3.0 + e[3] * -1.0 + e[4] * 2.0,
                e[5] * 2.0 * -1.0 + e[6] * 3.0]
    assert np.allclose(reduced_rhs(0.0, state, e), expected, rtol=0, atol=0)
    lp = LorenzParams(10.0, 8.0 / 3.0, 28.0)
    expected = [10.0 * (-1.0 - 2.0), 28.0 * 2.0 - -1.0 - 2.0 * 3.0,
                2.0 * -1.0 - 8.0 / 3.0 * 3.0]
    assert np.allclose(lorenz_rhs(0.0, state, lp), expected, rtol=0, atol=0)


@pytest.mark.parametrize("beta,factor,expected", [
    (0.0, 0.99, "decay"), (0.0, 1.01, "growth"),
    (0.3, 0.99, "decay"), (0.3, 1.01, "growth"),
])
def test_onset_separates_decay_from_growth(beta, factor, expected):
    params = make_params(beta=beta)
    ra = factor * critical_rayleigh(params, "closed_form")
    coeffs = closed_form_coefficients(params.with_rayleigh(ra))
    traj = integrate_reduced(coeffs, [1e-3, 1e-3, 1e-3], 20.0)
    assert amplitude_trend(traj) == expected


def test_tail_slope_matches_the_origin_eigenvalue():
    decay = LorenzParams(10.0, 8.0 / 3.0, 0.5)
    traj = integrate_lorenz(decay, [1.0, 1.0, 1.0], 20.0)
    assert log_norm_slope(traj) == pytest.approx(origin_growth_rate(decay),
                                                 rel=1e-3)
    growth = LorenzParams(10.0, 8.0 / 3.0, 28.0)
    traj = integrate_lorenz(growth, [1e-6, 1e-6, 1e-6], 1.0)
    assert log_norm_slope(traj) == pytest.approx(origin_growth_rate(growth),
                                                 rel=1e-3)


def test_log_norm_slope_on_exact_exponential():
    assert log_norm_slope(synthetic_trajectory(0.3)) == pytest.approx(
        0.3, rel=1e-12)
    assert log_norm_slope(synthetic_trajectory(-1.7)) == pytest.approx(
        -1.7, rel=1e-12)


def test_amplitude_trend_threshold():
    assert amplitude_trend(synthetic_trajectory(-0.5)) == "decay"
    assert amplitude_trend(synthetic_trajectory(0.5)) == "growth"
    assert amplitude_trend(synthetic_trajectory(1e-5)) == "flat"


def test_log_norm_slope_rejects_degenerate_input():
    with pytest.raises(ValueError):
        log_norm_slope(synthetic_trajectory(), tail_fraction=0.0)
    times = np.linspace(0.0, 1.0, 11)
    silent = Trajectory(times, np.zeros((11, 3)), REDUCED_LABELS, 1e-10,
                        1e-12, 0)
    with pytest.raises(ValueError):
        log_norm_slope(silent)


def test_sign_symmetry_of_the_flow():
    # (X, Y, Z) -> (-X, -Y, Z) maps solutions to solutions; negation is exact
    # in floating point so the sampled trajectories agree to roundoff
    lp = LorenzParams(10.0, 8.0 / 3.0, 28.0)
    plus = integrate_lorenz(lp, [1.0, 1.0, 1.0], 10.0)
    minus = integrate_lorenz(lp, [-1.0, -1.0, 1.0], 10.0)
    flip = np.array([-1.0, -1.0, 1.0])
    assert np.max(np.abs(plus.states - flip * minus.states)) < 1e-13


def test_tightening_tolerances_moves_the_endpoint_little():
    lp = LorenzParams(10.0, 8.0 / 3.0, 2.0)
    loose = integrate_lorenz(lp, [1.0, 1.0, 1.0], 10.0, rtol=1e-8, atol=1e-10)
    tight = integrate_lorenz(lp, [1.0, 1.0, 1.0], 10.0, rtol=1e-11, atol=1e-13)
    assert np.max(np.abs(loose.final - tight.final)) < 1e-6


def test_mapped_and_direct_lorenz_runs_agree():
    for beta in (0.0, 0.5):
        params = make_params(beta=beta)
        ra = 2.0 * critical_rayleigh(params, "closed_form")
        coeffs = closed_form_coefficients(params.with_rayleigh(ra))
        lp, sm = scale_to_lorenz(coeffs)
        s_grid = np.linspace(0.0, 20.0, 801)
        reduced = integrate_reduced(coeffs, [0.5, -0.3, 0.2],
                                    20.0 / sm.d, t_eval=s_grid / sm.d)
        mapped = map_trajectory(reduced, sm)
        direct = integrate_lorenz(lp, sm.apply(np.array([0.5, -0.3, 0.2])),
                                  20.0, t_eval=s_grid)
        assert np.max(np.abs(mapped.states - direct.states)) < 1e-6
        assert np.max(np.abs(mapped.times - s_grid)) < 1e-12 * 20.0


def test_map_trajectory_requires_reduced_labels():
    lp = LorenzParams(10.0, 8.0 / 3.0, 2.0)
    traj = integrate_lorenz(lp, [1.0, 1.0, 1.0], 1.0)
    coeffs = closed_form_coefficients(make_params(rayleigh=1000.0))
    _, sm = scale_to_lorenz(coeffs)
    with pytest.raises(ValueError):
        map_trajectory(traj, sm)


def test_integration_rejects_bad_arguments():
    coeffs = closed_form_coefficients(make_params(rayleigh=1000.0))
    with pytest.raises(ValueError):
        integrate_reduced(coeffs, [1.0, 1.0, 1.0], 0.0)
    with pytest.raises(ValueError):
        integrate_reduced(coeffs, [1.0, 1.0, 1.0], 1.0, rtol=0.0)
    with pytest.raises(ValueError):
        integrate_reduced(coeffs, [1.0, 1.0, 1.0], 1.0, atol=2.0)
    with pytest.raises(ValueError):
        integrate_reduced(coeffs, [1.0, 1.0], 1.0)
    with pytest.raises(ValueError):
        integrate_reduced(coeffs, [1.0, 1.0, math.nan], 1.0)


def test_finite_time_blowup_raises():
    params = make_params()
    runaway = GalerkinCoeffs(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0,
                             "closed_form", params)
    with pytest.raises(IntegrationError):
        integrate_reduced(runaway, [1.0, 1.0, 1.0], 50.0)


def test_overflow_surfaces_as_integration_error():
    # scalar float arithmetic raises on some overflows where numpy returns
    # inf; every such failure must surface as IntegrationError
    params = make_params()
    runaway = GalerkinCoeffs(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0,
                             "closed_form", params)
    with pytest.raises(IntegrationError):
        integrate_reduced(runaway, [1e150, 1e150, 1e150], 50.0)
    with pytest.raises(IntegrationError):
        largest_lyapunov(LorenzParams(10.0, 8.0 / 3.0, 28.0),
                         initial=[1e200, 1e200, 1e200])


def test_chaotic_lorenz_matches_the_reference_rk45():
    integrate = pytest.importorskip("scipy.integrate")
    lp = LorenzParams(10.0, 8.0 / 3.0, 28.0)
    grid = np.linspace(0.0, 5.0, 801)
    ours = integrate_lorenz(lp, [1.0, 1.0, 1.0], 5.0, t_eval=grid)
    reference = integrate.solve_ivp(
        lambda s, y: lorenz_rhs(s, y, lp), (0.0, 5.0), [1.0, 1.0, 1.0],
        method="RK45", t_eval=grid, rtol=1e-10, atol=1e-12)
    assert reference.success
    assert np.array_equal(ours.times, reference.t)
    assert np.max(np.abs(ours.states - reference.y.T)) <= 1e-10
    assert ours.nfev == reference.nfev


def test_linear_system_matches_its_exponential_solution():
    rates = np.array([-1.0, 0.5, -0.25])
    linear = GalerkinCoeffs(rates[0], 0.0, 0.0, rates[1], 0.0, 0.0, rates[2],
                            "closed_form", make_params())
    initial = np.array([1.0, -2.0, 3.0])
    traj = integrate_reduced(linear, initial, 3.0)
    assert traj.times[-1] == 3.0
    exact = initial * np.exp(np.outer(traj.times, rates))
    assert np.max(np.abs(traj.states / exact - 1.0)) <= 1e-9


def test_trajectory_validation():
    times = np.linspace(0.0, 1.0, 5)
    states = np.zeros((5, 3))
    with pytest.raises(ValueError):
        Trajectory(times[::-1], states, REDUCED_LABELS, 1e-10, 1e-12, 0)
    with pytest.raises(ValueError):
        Trajectory(times, states[:4], REDUCED_LABELS, 1e-10, 1e-12, 0)
    with pytest.raises(ValueError):
        Trajectory(times, states, ("t", "A", "B"), 1e-10, 1e-12, 0)


def test_csv_round_trip_and_line_endings(tmp_path):
    times = np.array([0.0, 0.5, 2.0])
    states = np.array([[1.0, 2.0, 3.0],
                       [0.1, 1.0 / 3.0, 6.02e23],
                       [-1e-300, 0.0, math.pi]])
    traj = Trajectory(times, states, REDUCED_LABELS, 1e-10, 1e-12, 7)
    buffer = io.StringIO()
    traj.to_csv(buffer)
    text = buffer.getvalue()
    assert "\r" not in text
    lines = text.split("\n")
    assert lines[0] == "t,A,B,C"
    assert lines[-1] == ""
    for k, line in enumerate(lines[1:-1]):
        cells = line.split(",")
        assert len(cells) == 4
        assert float(cells[0]) == times[k]
        assert [float(cell) for cell in cells[1:]] == list(states[k])
    path = tmp_path / "run.csv"
    traj.to_csv(path)
    assert path.read_bytes().decode() == text


def test_lyapunov_exponent_matches_linear_decay_rate():
    lp = LorenzParams(10.0, 8.0 / 3.0, 0.5)
    estimate = largest_lyapunov(lp)
    assert estimate == pytest.approx(origin_growth_rate(lp), abs=1e-3)
    assert largest_lyapunov(lp) == estimate
    assert largest_lyapunov(lp, seed=1) == pytest.approx(estimate, abs=1e-3)


def test_lyapunov_preconditions():
    lp = LorenzParams(10.0, 8.0 / 3.0, 28.0)
    with pytest.raises(ValueError):
        largest_lyapunov(lp, s_end=100.0)
    with pytest.raises(ValueError):
        largest_lyapunov(lp, renorm_interval=0.0)
    with pytest.raises(ValueError):
        largest_lyapunov(lp, discard_fraction=1.0)


# three decoupled 2x2 blocks [[a, -w], [w, a]] as a table system
ROTATING = _System("rotating", "a1, w1, a2, w2, a3, w3 = p", "P1, Q1, P2, Q2, P3, Q3", (
    "a1 * P1 - w1 * Q1", "w1 * P1 + a1 * Q1", "a2 * P2 - w2 * Q2", "w2 * P2 + a2 * Q2",
    "a3 * P3 - w3 * Q3", "w3 * P3 + a3 * Q3"))


def test_six_state_linear_system_matches_its_exponential_solution():
    # the 6-float loop serves Lyapunov; check it on a flow known in closed form
    blocks = ((-0.5, 2.0), (0.25, -1.0), (-0.1, 3.5))
    initial = [1.0, -2.0, 0.5, 3.0, -1.5, 0.25]
    records = bytearray()
    final, nfev, bounds = _dopri45(ROTATING, sum(blocks, ()), initial, 3.0,
                                   1e-10, 1e-12, records)
    steps = len(bounds) - 1
    assert bounds[0] == 0.0 and bounds[-1] == 3.0
    assert (nfev - 2) % 6 == 0 and nfev >= 2 + 6 * steps
    assert len(np.frombuffer(records)) == 8 * 6 * steps
    times = np.linspace(0.0, 3.0, 61)
    exact = np.empty((times.size, 6))
    for k, (a, w) in enumerate(blocks):
        p, q = initial[2 * k], initial[2 * k + 1]
        c, s, g = np.cos(w * times), np.sin(w * times), np.exp(a * times)
        exact[:, 2 * k] = g * (p * c - q * s)
        exact[:, 2 * k + 1] = g * (p * s + q * c)
    states = _dense_output(times, bounds, records)
    error = np.linalg.norm(states - exact, axis=1) / np.linalg.norm(exact, axis=1)
    assert np.max(error) <= 1e-9
    assert np.linalg.norm(np.subtract(final, exact[-1])) <= 1e-9 * np.linalg.norm(exact[-1])


PUBLIC_RHS = {"reduced": reduced_rhs, "lorenz": lorenz_rhs, "tangent": _tangent_rhs}


def stage_state(y, h, weights, stages):
    # y + h * (w1 k1 + w2 k2 + ...) over the nonzero weights, summed left to
    # right in the order the generated loop spells out
    state = []
    for i, y_i in enumerate(y):
        terms = [w * k[i] for w, k in zip(weights, stages) if w]
        total = terms[0]
        for term in terms[1:]:
            total = total + term
        state.append(y_i + h * total)
    return state


def test_pasted_rhs_matches_the_public_functions_bit_for_bit():
    # every stage a step records must be the public RHS at that stage's state,
    # and the next step must start where the 5th-order combination ends
    assert {system.name for system in _SYSTEMS} == set(PUBLIC_RHS)
    rng = np.random.default_rng(5)
    for system in _SYSTEMS:
        rhs, n = PUBLIC_RHS[system.name], len(system.rhs)
        for _ in range(100):
            lp = LorenzParams(*rng.uniform(0.5, 30.0, 3))
            arg = rng.uniform(-2.0, 2.0, 7).tolist() if system.name == "reduced" else lp
            records = bytearray()
            _, _, bounds = _dopri45(system, arg, rng.uniform(-5.0, 5.0, n).tolist(),
                                    0.05, 1e-10, 1e-12, records)
            table = np.reshape(np.frombuffer(records), (-1, 8, n)).tolist()
            for step, (y, *stages) in enumerate(table):
                h = bounds[step + 1] - bounds[step]
                assert list(rhs(0.0, y, arg)) == stages[0]
                for s, weights in enumerate(_A + (_B,), 1):
                    state = stage_state(y, h, weights, stages)
                    assert list(rhs(0.0, state, arg)) == stages[s]
                if step + 1 < len(table):
                    assert table[step + 1][0] == state


def test_generated_code_is_readable_by_tools():
    # linecache holds the generated source: inspect, the traceback module,
    # cProfile and pdb show the real lines of the loop
    assert "k2_1 = r * X - Y - X * Z" in inspect.getsource(_stepper(_LORENZ))
    assert "return (sigma * (Y - X), " in inspect.getsource(lorenz_rhs)
    runaway = GalerkinCoeffs(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, "closed_form",
                             make_params())
    with pytest.raises(IntegrationError) as info:
        integrate_reduced(runaway, [1.0, 1.0, 1.0], 50.0)
    text = "".join(traceback.format_exception(info.value))
    assert 'File "<dopri45 reduced>"' in text
    assert 'raise IntegrationError("step size' in text


def test_importing_the_cli_builds_no_stepper():
    # steppers are compiled on first use, so every CLI start stays as cheap
    code = ("import anelor.cli\nfrom anelor import dynamics\n"
            "print(dynamics._stepper.cache_info().currsize)")
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, env=env, check=True, timeout=60)
    assert result.stdout.strip() == "0"


def test_step_counts_account_for_every_rhs_evaluation():
    lp = LorenzParams(10.0, 8.0 / 3.0, 28.0)
    smooth = integrate_lorenz(LorenzParams(10.0, 8.0 / 3.0, 2.0), [1.0, 1.0, 1.0], 5.0)
    chaotic = integrate_lorenz(lp, [1.0, 1.0, 1.0], 20.0)
    for traj in (smooth, chaotic):
        assert traj.steps > 0 and traj.rejected >= 0
        assert traj.nfev == 2 + 6 * (traj.steps + traj.rejected)
    # the chaotic run rejects some of its steps, so both counts are exercised;
    # the exact count pins the step control's clamps
    assert chaotic.rejected == 22
    coeffs = closed_form_coefficients(make_params(rayleigh=1000.0))
    reduced = integrate_reduced(coeffs, [0.5, -0.3, 0.2], 2.0)
    mapped = map_trajectory(reduced, scale_to_lorenz(coeffs)[1])
    assert (mapped.steps, mapped.rejected) == (reduced.steps, reduced.rejected)


def test_chaotic_run_matches_golden_values():
    # recorded from the list-based stepper and the nested-record dense output
    # these replaced: the generated loop must reproduce their arithmetic, step
    # sequence included, and the flat records the interpolated rows
    traj = integrate_lorenz(LorenzParams(10.0, 8.0 / 3.0, 28.0), [1.0, 1.0, 1.0], 20.0)
    assert traj.nfev == 28304
    golden = {100: [-6.959573601088366, -7.272469244151342, 24.703122179816486],
              400: [-4.902687552288527, -3.743873034200508, 24.690857961368838],
              800: [13.793346313568065, 12.952017919539907, 34.90175027930282]}
    for row, values in golden.items():
        assert np.max(np.abs(traj.states[row] / values - 1.0)) <= 1e-12


def test_reduced_run_matches_golden_values():
    # a chaotic reduced run (r = 26 after scaling), recorded before the step
    # control lost its min/max calls and the records were packed: step
    # sequence and interpolated rows must not move
    params = make_params(beta=0.3, rayleigh=20000.0)
    traj = integrate_reduced(closed_form_coefficients(params), [0.5, -0.3, 0.2], 2.0)
    assert (traj.nfev, traj.steps, traj.rejected) == (48398, 8026, 40)
    golden = {100: [-19.996085417521606, -19.760096273496057, -47.99328035437012],
              400: [-32.20284924593663, -18.685790108247758, -73.45476012282039],
              800: [34.19947076235237, 19.50728329150348, -76.17376677817141]}
    for row, values in golden.items():
        assert np.max(np.abs(traj.states[row] / values - 1.0)) <= 1e-12


def test_stiff_run_rejects_steps_at_the_shrink_limit():
    # a stiff start rejects steps with errors past 0.9^5 / 0.2^5 ~ 1850, so
    # the step shrinks by the floor factor 0.2; counts recorded as above
    stiff = GalerkinCoeffs(-1000.0, 1.0, 5.0, -1.0, 1.0, -5.0, -2000.0, "closed_form",
                           make_params())
    traj = integrate_reduced(stiff, [0.1, 0.0, 0.0], 0.1)
    assert (traj.nfev, traj.steps, traj.rejected) == (1340, 217, 6)


def test_lyapunov_matches_golden_value(chaotic_lyapunov_seed0):
    estimate = chaotic_lyapunov_seed0
    assert estimate == pytest.approx(0.9135453489127642, rel=1e-12)
