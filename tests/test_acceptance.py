"""Acceptance gate: one numbered criterion per test, stated tolerances.

Each test computes its quantities, prints exactly one status line

    CRITERION <n>: PASS|FAIL - <measured detail>

and only then asserts, so a full run of this module always shows the
complete scoreboard (use ``pytest tests/test_acceptance.py -rA``).
Runtime caps are part of the criteria and are measured inside each
test body.

Criterion 5 runs the default equivalence pipeline: beta from the
relative-phase (``splitting``) J0 argument, micromotion-free (``slow``)
envelopes, and a static reference started from the first-order kicked
state.  Its residual is O(1 / Omega^2); the bound is the stated 5
percent.
"""

import cmath
import json
import math
import time

import numpy as np
import pytest
from scipy.special import jv

from conftest import charpoly_eigvals
from ptjc.bessel import bessel_j0, solve_j0_equals
from ptjc.cli import main as cli_main
from ptjc.dynamics import (
    ModulationTarget,
    bind_static_rhs,
    closed_form_amplitudes,
    integrate,
)
from ptjc.equivalence import (
    ExperimentConfig,
    convergence_sweep,
    run_equivalence_experiment,
)
from ptjc.fockspace import FockSpace, build_h0
from ptjc.jc import (
    JcParams,
    PtPhaseKind,
    build_subspace_hamiltonian,
    classify_pt_phase,
    dressed_spectrum,
)
from ptjc.pseudo import (
    build_biorthogonal_system,
    build_similarity,
    eigen_residuals,
    energy_formula,
    metric_checks,
    quasi_basis_check,
    t_alpha_diagonalization_check,
)

GATE_SEED = 20260814


def report(number: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {number}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_bessel_root():
    t0 = time.perf_counter()
    result = solve_j0_equals(1j)
    elapsed = time.perf_counter() - t0
    offset = abs(result.root - (-2.14 + 1.42j))
    ok = (result.converged and result.residual <= 1e-12
          and offset <= 5e-3 and elapsed < 1.0)
    report(1, ok, f"root {result.root:.12f}, residual {result.residual:.2e}, "
                  f"|root - (-2.14+1.42i)| = {offset:.2e}, {elapsed:.3f} s")
    assert ok


def test_criterion_2_bessel_quadrature_agreement():
    t0 = time.perf_counter()
    rng = np.random.default_rng(GATE_SEED)
    worst = 0.0
    for _ in range(50):
        radius = 6.0 * math.sqrt(rng.uniform())
        angle = rng.uniform(0.0, 2.0 * math.pi)
        z = complex(radius * math.cos(angle), radius * math.sin(angle))
        worst = max(worst, abs(bessel_j0(z) - complex(jv(0, z))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 10.0
    report(2, ok, f"max |J0 - scipy jv(0)| = {worst:.2e} over 50 points "
                  f"|z| <= 6, {elapsed:.2f} s")
    assert ok


def test_criterion_3_block_spectra():
    # deviations are read relative to the eigenvalue magnitude: with
    # n up to 50 the energies reach ~1e2 and doubles carry ~1e-16
    # relative, so a plain absolute 1e-12 is not meaningful here
    t0 = time.perf_counter()
    rng = np.random.default_rng(GATE_SEED + 3)
    worst = 0.0
    for _ in range(200):
        params = JcParams(omega0=rng.uniform(0.2, 3.0),
                          omega=rng.uniform(0.2, 3.0),
                          coupling=rng.uniform(-0.5, 0.5))
        n = int(rng.integers(1, 51))
        spec = dressed_spectrum(params, n)
        hi, lo = charpoly_eigvals(build_subspace_hamiltonian(params, n))
        ref = sorted((hi, lo), key=lambda z: z.real)
        got = sorted((spec.e_minus, spec.e_plus), key=lambda z: z.real)
        for a, b in zip(got, ref):
            worst = max(worst, abs(a - b) / max(1.0, abs(b)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    report(3, ok, f"max closed-form vs characteristic-polynomial deviation "
                  f"{worst:.2e} of eigenvalue magnitude, 200 draws n <= 50, "
                  f"{elapsed:.2f} s")
    assert ok


def test_criterion_4_integrator_accuracy_and_order():
    t0 = time.perf_counter()
    params = JcParams(1.0, 1.0, 0.05)
    period = 2.0 * math.pi / 0.05
    rhs = bind_static_rhs(params, 1)
    c0, d0 = 0.0 + 0.0j, 1.0 + 0.0j
    traj = integrate(rhs, c0, d0, 10.0 * period, period / 1000.0)
    ref_c, ref_d = closed_form_amplitudes(params, 1, c0, d0, traj.times)
    max_err = max(np.abs(traj.c - ref_c).max(), np.abs(traj.d - ref_d).max())

    end_errors = []
    for divisor in (100, 200):
        tr = integrate(rhs, c0, d0, period, period / divisor)
        ref_c, ref_d = closed_form_amplitudes(params, 1, c0, d0, tr.times[-1])
        end_errors.append(max(abs(tr.c[-1] - ref_c), abs(tr.d[-1] - ref_d)))
    order = math.log2(end_errors[0] / end_errors[1])
    elapsed = time.perf_counter() - t0
    ok = max_err <= 1e-8 and 3.7 <= order <= 4.3 and elapsed < 5.0
    report(4, ok, f"max error {max_err:.2e} over 10 periods at T/1000, "
                  f"observed order {order:.3f}, {elapsed:.2f} s")
    assert ok


def test_criterion_5_equivalence_headline():
    t0 = time.perf_counter()
    params = JcParams(1.0, 1.0, 0.05)
    atom_cfg = ExperimentConfig(params=params, target=ModulationTarget.ATOM_FREQUENCY)
    headline = run_equivalence_experiment(atom_cfg).max_rel_err

    curve = convergence_sweep(atom_cfg, [25.0, 50.0, 100.0, 200.0])
    sweep_errs = [err for _, err in curve]
    sweep_ok = all(b <= a + 1e-12 for a, b in zip(sweep_errs, sweep_errs[1:]))

    cavity_errs = {}
    for n in (1, 4, 9, 16):
        cfg = ExperimentConfig(params=params,
                               target=ModulationTarget.CAVITY_FREQUENCY, n=n)
        cavity_errs[n] = run_equivalence_experiment(cfg).max_rel_err
    elapsed = time.perf_counter() - t0

    headline_ok = headline <= 0.05
    cavity_ok = all(err <= 0.05 for err in cavity_errs.values())
    ok = headline_ok and sweep_ok and cavity_ok and elapsed < 120.0
    sweep_text = "/".join(f"{e:.4f}" for e in sweep_errs)
    report(5, ok, f"headline max_rel_err {headline:.4f} (bound 0.05), "
                  f"sweep {sweep_text} non-increasing={sweep_ok}, "
                  "cavity " + " ".join(f"n={n} {e:.4f}" for n, e in cavity_errs.items())
                  + f" (bound 0.05), {elapsed:.1f} s")
    assert ok, ("window-averaged driven dynamics misses the static reference "
                f"beyond the 0.05 bound (headline {headline:.4f}); see README "
                "\"Equivalence experiment\" for the formulas it rests on")


def test_criterion_6_conserved_quantities():
    t0 = time.perf_counter()
    # imaginary coupling: |c|^2 - |d|^2 is the conserved pairing; the
    # amplitudes grow like exp(|kappa| t), so the check is run over the
    # experiment-sized windows |kappa| t <= 2 and <= 4 where the
    # difference of squares is still representable in doubles
    pseudo_drift = 0.0
    for span in (2.0, 4.0):
        for n, g in ((1, 0.1), (2, 0.07)):
            params = JcParams(1.0, 1.0, complex(0.0, g))
            kappa = g * math.sqrt(n)
            rhs = bind_static_rhs(params, n)
            t1 = span / kappa
            traj = integrate(rhs, 0.8 + 0.1j, 0.3 - 0.2j, t1, t1 / 1000.0)
            q = np.abs(traj.c) ** 2 - np.abs(traj.d) ** 2
            pseudo_drift = max(pseudo_drift, np.abs(q - q[0]).max())

    params = JcParams(1.0, 1.0, 0.1)
    rhs = bind_static_rhs(params, 1)
    period = 2.0 * math.pi / 0.1
    traj = integrate(rhs, 0.6 + 0.2j, 0.5 - 0.1j, 10.0 * period, period / 1000.0)
    norm = np.abs(traj.c) ** 2 + np.abs(traj.d) ** 2
    norm_drift = float(np.abs(norm - norm[0]).max())
    elapsed = time.perf_counter() - t0

    ok = pseudo_drift <= 1e-10 and norm_drift <= 1e-10 and elapsed < 5.0
    report(6, ok, f"|c|^2-|d|^2 drift {pseudo_drift:.2e} (imaginary coupling), "
                  f"|c|^2+|d|^2 drift {norm_drift:.2e} (real coupling), "
                  f"{elapsed:.2f} s")
    assert ok


def criterion_7_points():
    """(delta, g, n) of criterion 7's grid: 90 spread points and 10 with a zero discriminant."""
    points = []
    for i, delta in enumerate(np.linspace(-0.6, 0.6, 10)):
        for j, g in enumerate(np.linspace(0.02, 0.3, 9)):
            points.append((float(delta), float(g), 1 + (i + j) % 4))
    for j in range(10):
        g = 0.02 + 0.03 * j
        n = 1 + j % 4
        points.append((2.0 * g * math.sqrt(n), g, n))  # discriminant zero
    return points


def test_criterion_7_pt_classification_grid():
    t0 = time.perf_counter()
    points = criterion_7_points()
    assert len(points) == 100

    disagreements = 0
    for delta, g, n in points:
        params = JcParams(omega0=1.0 + delta, omega=1.0,
                          coupling=complex(0.0, g))
        phase = classify_pt_phase(params, n)
        hi, lo = charpoly_eigvals(build_subspace_hamiltonian(params, n))
        if abs(hi - lo) <= 1e-6:
            direct = PtPhaseKind.EXCEPTIONAL_POINT
        elif max(abs(hi.imag), abs(lo.imag)) <= 1e-6:
            direct = PtPhaseKind.UNBROKEN
        else:
            direct = PtPhaseKind.BROKEN
        if direct is not phase.kind:
            disagreements += 1
    elapsed = time.perf_counter() - t0
    ok = disagreements == 0 and elapsed < 1.0
    report(7, ok, f"{100 - disagreements}/100 grid points agree with direct "
                  f"eigenvalue reality (10 on the degeneracy boundary), "
                  f"{elapsed:.2f} s")
    assert ok


@pytest.mark.parametrize("scale", [1e-6, 1e6])
def test_criterion_7_grid_classifies_alike_at_any_energy_scale(scale):
    # the exceptional-point window is relative to delta^2 + 4 g^2 n: an absolute 1e-10
    # read every point as exceptional at scale 1e-6
    def kinds(s):
        return [classify_pt_phase(JcParams(omega0=(1.0 + delta) * s, omega=s,
                                           coupling=complex(0.0, g * s)), n).kind
                for delta, g, n in criterion_7_points()]

    assert kinds(scale) == kinds(1.0)


@pytest.mark.parametrize("eps", [0.1, 0.1 * cmath.exp(1j * math.pi / 5)],
                         ids=["real_eps", "complex_eps"])
def test_criterion_8_deformed_system_suite(eps):
    t0 = time.perf_counter()
    params = JcParams(1.0, 1.0, eps)
    space = FockSpace(boson_levels=32)
    h0 = build_h0(params, space)
    smap = build_similarity(space, 0.5)
    system = build_biorthogonal_system(h0, smap)

    gram = system.gram()
    gram_off = float(np.abs(gram - np.diag(np.diag(gram))).max())
    res_phi, res_psi = eigen_residuals(system, h0, smap)
    metric = metric_checks(system, smap)
    probes = []
    for m in range(space.boson_levels):
        for k in (0, 1):
            if m + k <= 5:
                v = np.zeros(space.total_dim, dtype=complex)
                v[2 * m + k] = 1.0
                probes.append(v)
    quasi = max(max(r["direct"], r["swapped"])
                for r in quasi_basis_check(system, probes))
    t_res = t_alpha_diagonalization_check(h0, smap, params)
    slots = [2 * m + k for m, k in system.labels]
    formula_dev = float(np.abs(system.energies - energy_formula(params, space)[slots]).max())
    elapsed = time.perf_counter() - t0

    ok = (gram_off <= 1e-10
          and max(res_phi, res_psi) <= 1e-9
          and metric["identity_rel_max"] <= 1e-10
          and quasi <= 1e-9
          and t_res <= 1e-9
          and formula_dev <= 1e-8
          and elapsed < 30.0)
    report(8, ok, f"eps {eps:.4g}: gram {gram_off:.2e}, eigen {max(res_phi, res_psi):.2e}, "
                  f"metric rel {metric['identity_rel_max']:.2e}, "
                  f"quasi {quasi:.2e}, t_alpha {t_res:.2e}, "
                  f"energy formula {formula_dev:.2e}, {elapsed:.1f} s")
    assert ok


def test_criterion_9_byte_identical_outputs(tmp_path):
    t0 = time.perf_counter()
    same = True
    sizes = {}
    # evolve as its benchmark workload runs it: detuned gauged atom drive, 16,001
    # samples, all three frames
    frames = ("gauged", "interaction", "lab")
    evolve = tmp_path / "evolve.json"
    evolve.write_text(json.dumps({
        "omega0": 1.0125, "omega": 1.0, "coupling": 0.05, "n": 2, "rhs": "gauged",
        "modulation": {"target": "atom", "beta": "condition", "big_omega": 5.0},
        "initial_c": [0.6, 0.3], "initial_d": [-0.2, 0.7141428428542851],
        "t1": 62.5, "step": 1.0 / 256.0, "frames": list(frames)}), encoding="utf-8")
    for command, argv, files in (
            ("compare", [], ("report.json", "comparison.csv")),
            ("pseudo", [], ("pseudo.json",)),
            ("evolve", ["--config", str(evolve)], [f"trajectory_{f}.csv" for f in frames])):
        dir1 = tmp_path / f"{command}_1"
        dir2 = tmp_path / f"{command}_2"
        assert cli_main([command, *argv, "--output-dir", str(dir1)]) == 0
        assert cli_main([command, *argv, "--output-dir", str(dir2)]) == 0
        for name in files:
            blob1 = (dir1 / name).read_bytes()
            blob2 = (dir2 / name).read_bytes()
            same = same and blob1 == blob2
            sizes[name] = len(blob1)
    # sanity: the compared payloads are real reports, not empty shells
    payload = json.loads((tmp_path / "pseudo_1" / "pseudo.json").read_text())
    same = same and len(payload["energies"]) == 57
    for f in frames:
        lines = (tmp_path / "evolve_1" / f"trajectory_{f}.csv").read_text().splitlines()
        same = same and len(lines) == 16002 and lines[-1].endswith(f",{f},2")
    elapsed = time.perf_counter() - t0
    size_text = ", ".join(f"{k} {v} B" for k, v in sorted(sizes.items()))
    report(9, same, f"repeated compare, pseudo and three-frame evolve runs byte-identical "
                    f"({size_text}), {elapsed:.1f} s")
    assert same
