"""The three benchmark workloads and the independent checks of their outputs.

Each op is one ``ptjc.cli.main(argv)`` call followed by reading its
outputs back, as an analysis script would.  The parameters of op
``index`` are drawn from ``random.Random(f"{name}/{seed}/{index}")``,
so a seed fixes the whole input sequence while the amount of work per
op stays fixed.

The checks use tolerances, never byte hashes, and their reference
values come from code in this file (a power-series J0 with its own
Newton solve, NumPy frame phases, a plain RK4, closed-form 2x2 block
eigenvalues), not from the package under test.
"""
from __future__ import annotations

import cmath
import contextlib
import importlib
import io
import json
import math
import random
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

FRAMES = ("gauged", "interaction", "lab")


@dataclass
class Op:
    """One prepared CLI invocation: its argv, drawn inputs and size."""

    index: int
    argv: list
    params: dict
    size: dict
    out_dir: Path


def _write_config(workdir: Path, doc: dict) -> str:
    path = workdir / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _fresh_out_dir(workdir: Path) -> Path:
    out = workdir / "out"
    if out.exists():
        for child in out.iterdir():
            child.unlink()
    else:
        out.mkdir(parents=True)
    return out


def _rng(name: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{name}/{seed}/{index}")


# ---------------------------------------------------------------------------
# independent reference numerics


def _j0_j1(z: complex, terms: int = 80) -> tuple[complex, complex]:
    """J0 and J1 by their ascending series; fine for |z| below about 10."""
    q = -(z * z) / 4.0
    t0 = 1.0 + 0j
    t1 = z / 2.0
    j0, j1 = t0, t1
    for k in range(1, terms):
        t0 *= q / (k * k)
        t1 *= q / (k * (k + 1))
        j0 += t0
        j1 += t1
        if abs(t0) + abs(t1) < 1e-18:
            break
    return j0, j1


def principal_root_j0_equals_i() -> complex:
    """Root of J0(r) = i near -2.14 + 1.42i by Newton with J0' = -J1."""
    r = -2.0 + 1.4j
    for _ in range(50):
        j0, j1 = _j0_j1(r)
        step = (j0 - 1j) / (-j1)
        r -= step
        if abs(step) < 1e-15:
            break
    if abs(_j0_j1(r)[0] - 1j) > 1e-12:
        raise ArithmeticError("reference J0(r) = i solve did not converge")
    return r


def rk4_gauged_atom(p: dict, beta: complex, steps: int):
    """Plain RK4 of the gauged atom-drive equations from the op's initial state."""
    delta = p["omega0"] - p["omega"]
    big = p["big_omega"]
    gamma0 = p["omega0"] * beta / (2.0 * big)
    mod_amp = p["omega0"] * beta / 2.0
    kappa = p["coupling"] * math.sqrt(p["n"])

    def rhs(t, c, d):
        kick = 1j * delta * t + 1j * gamma0 * math.sin(big * t)
        dc = -1j * kappa * cmath.exp(kick) * d
        dd = -1j * (-mod_amp * math.cos(big * t) * d + kappa * cmath.exp(-kick) * c)
        return dc, dd

    h = p["step"]
    c, d = complex(*p["initial_c"]), complex(*p["initial_d"])
    cs, ds = [c], [d]
    for k in range(steps):
        t = k * h
        k1c, k1d = rhs(t, c, d)
        k2c, k2d = rhs(t + h / 2, c + h / 2 * k1c, d + h / 2 * k1d)
        k3c, k3d = rhs(t + h / 2, c + h / 2 * k2c, d + h / 2 * k2d)
        k4c, k4d = rhs(t + h, c + h * k3c, d + h * k3d)
        c = c + h / 6 * (k1c + 2 * k2c + 2 * k3c + k4c)
        d = d + h / 6 * (k1d + 2 * k2d + 2 * k3d + k4d)
        cs.append(c)
        ds.append(d)
    return np.array(cs), np.array(ds)


def _rel_dev(c_got, d_got, c_ref, d_ref) -> float:
    """Largest per-sample deviation of (c, d) over the reference pair's norm."""
    scale = np.sqrt(np.abs(c_ref) ** 2 + np.abs(d_ref) ** 2)
    dev = np.sqrt(np.abs(c_got - c_ref) ** 2 + np.abs(d_got - d_ref) ** 2)
    return float(np.max(dev / np.maximum(scale, 1e-300)))


def block_energies(omega0: float, omega: float, eps: complex, max_block: int) -> list:
    """Eigenvalues of H0's excitation blocks 0..max_block, from the 2x2 formula.

    Block N >= 1 spans |N-1, 1> and |N, 0>, with diagonal
    (omega0/2 + omega (N-1), omega N - omega0/2) and coupling eps sqrt(N).
    """
    energies = [-omega0 / 2.0]
    for n in range(1, max_block + 1):
        mean = omega * (n - 0.5)
        half_gap = math.sqrt(((omega0 - omega) / 2.0) ** 2 + abs(eps) ** 2 * n)
        energies += [mean - half_gap, mean + half_gap]
    return sorted(energies)


# ---------------------------------------------------------------------------
# workloads


class EvolveDetuned:
    """`ptjc evolve` of the detuned gauged atom drive, three frames, CSVs read back.

    Frame maps and trajectory CSV write and read dominate; integration
    is about a tenth.  The detuning makes the drive aperiodic, so a
    periodic-propagator shortcut cannot apply.
    """

    name = "evolve-detuned"
    big_omega = 5.0
    step = 1.0 / 256.0
    rk4_check_steps = 1000
    frame_tol = 1e-9
    rk4_tol = 1e-9

    def __init__(self, tiny: bool = False):
        self.t1 = 2.0 if tiny else 62.5
        self._root = principal_root_j0_equals_i()

    def make_op(self, seed: int, index: int, workdir: Path) -> Op:
        rng = _rng(self.name, seed, index)
        theta = rng.uniform(0.0, 2.0 * math.pi)
        phase_c, phase_d = rng.uniform(-math.pi, math.pi), rng.uniform(-math.pi, math.pi)
        c0 = math.cos(theta) * cmath.exp(1j * phase_c)
        d0 = math.sin(theta) * cmath.exp(1j * phase_d)
        p = {
            "omega0": 1.0 + rng.uniform(0.005, 0.02),
            "omega": 1.0,
            "coupling": rng.uniform(0.04, 0.06),
            "n": rng.choice((1, 2)),
            "big_omega": self.big_omega,
            "initial_c": [c0.real, c0.imag],
            "initial_d": [d0.real, d0.imag],
            "t1": self.t1,
            "step": self.step,
        }
        doc = {k: p[k] for k in ("omega0", "omega", "coupling", "n", "initial_c",
                                 "initial_d", "t1", "step")}
        doc.update(rhs="gauged", frames=list(FRAMES),
                   modulation={"target": "atom", "beta": "condition",
                               "big_omega": self.big_omega})
        config = _write_config(workdir, doc)
        out = _fresh_out_dir(workdir)
        samples = int(round(self.t1 / self.step)) + 1
        return Op(index=index, argv=["evolve", "--config", config, "--output-dir", str(out)],
                  params=p, size={"samples": samples, "frames": len(FRAMES)}, out_dir=out)

    def collect(self, op: Op) -> dict:
        # Imported per call, so that a tracer's wrapper is the one called.
        from ptjc.dynamics import read_trajectory_csv
        return {f: read_trajectory_csv(str(op.out_dir / f"trajectory_{f}.csv")) for f in FRAMES}

    def check(self, op: Op, trajs: dict) -> list:
        p = op.params
        errors = []
        samples = op.size["samples"]
        grid = np.arange(samples) * self.step
        cols = {}
        for f, tr in trajs.items():
            t = np.asarray(tr.times, dtype=float)
            c = np.asarray(tr.c, dtype=complex)
            d = np.asarray(tr.d, dtype=complex)
            if len(t) != samples or len(c) != samples or len(d) != samples:
                errors.append(f"{f}: {len(t)} rows, expected {samples}")
                continue
            if np.abs(t - grid).max() > 1e-12 * max(1.0, self.t1):
                errors.append(f"{f}: time grid differs from i * {self.step}")
            if not (np.isfinite(c).all() and np.isfinite(d).all()):
                errors.append(f"{f}: non-finite amplitudes")
            if tr.frame.value != f or tr.n != p["n"]:
                errors.append(f"{f}: rows tagged frame={tr.frame.value} n={tr.n}")
            cols[f] = (c, d)
        if errors:
            return errors

        beta = -2.0 * p["big_omega"] * self._root / p["omega0"]
        phi = (p["omega0"] * beta / (2.0 * p["big_omega"])) * np.sin(p["big_omega"] * grid)
        c_g, d_g = cols["gauged"]
        c_i, d_i = c_g / np.exp(1j * phi), d_g
        dev = _rel_dev(*cols["interaction"], c_i, d_i)
        if dev > self.frame_tol:
            errors.append(f"interaction frame deviates {dev:.3e} from gauged / exp(i phase)")
        n = p["n"]
        c_l = c_i / np.exp(1j * (p["omega0"] / 2.0 + p["omega"] * (n - 1)) * grid)
        d_l = d_i / np.exp(1j * (n * p["omega"] - p["omega0"] / 2.0) * grid)
        dev = _rel_dev(*cols["lab"], c_l, d_l)
        if dev > self.frame_tol:
            errors.append(f"lab frame deviates {dev:.3e} from the interaction-frame phases")
        steps = min(self.rk4_check_steps, samples - 1)
        c_ref, d_ref = rk4_gauged_atom(p, beta, steps)
        dev = _rel_dev(c_g[:steps + 1], d_g[:steps + 1], c_ref, d_ref)
        if dev > self.rk4_tol:
            errors.append(f"gauged frame deviates {dev:.3e} from reference RK4 "
                          f"over {steps} steps")
        return errors


class CompareSweep:
    """`ptjc compare` convergence sweep over three drive ratios.

    RK4 integration on the periodic resonant path is about two thirds;
    the rest is boxcar averaging and the static reference.  No frame
    maps and no trajectory CSV.
    """

    name = "compare-sweep"

    def __init__(self, tiny: bool = False):
        self.ratios = [10.0, 20.0] if tiny else [100.0, 200.0, 400.0]

    def make_op(self, seed: int, index: int, workdir: Path) -> Op:
        rng = _rng(self.name, seed, index)
        p = {
            "coupling": rng.uniform(0.03, 0.07),
            "target": rng.choice(("atom", "cavity")),
            "n": rng.choice((1, 2, 3)),
            "convention": rng.choice(("gauge", "splitting")),
            "measure": rng.choice(("printed", "slow")),
            "ratios": list(self.ratios),
        }
        config = _write_config(workdir, p)
        out = _fresh_out_dir(workdir)
        # Each ratio integrates ceil(duration * ratio * 400 / 2 pi) steps.
        steps = sum(math.ceil(2.0 * r * 400 / (2.0 * math.pi)) for r in self.ratios)
        return Op(index=index, argv=["compare", "--config", config, "--output-dir", str(out)],
                  params=p, size={"ratios": len(self.ratios), "rk4_steps": steps},
                  out_dir=out)

    def collect(self, op: Op) -> dict:
        report = json.loads((op.out_dir / "report.json").read_text(encoding="utf-8"))
        rows = (op.out_dir / "comparison.csv").read_text(encoding="utf-8").splitlines()
        return {"report": report, "csv": rows}

    def check(self, op: Op, outputs: dict) -> list:
        sweep = outputs["report"].get("sweep")
        if not isinstance(sweep, list):
            return ["report.json has no sweep list"]
        got = [entry.get("omega_ratio") for entry in sweep]
        if got != self.ratios:
            return [f"sweep ratios {got}, expected {self.ratios}"]
        errors = []
        for entry in sweep:
            err = entry.get("max_rel_err")
            if not (isinstance(err, float) and math.isfinite(err) and err >= 0.0):
                errors.append(f"ratio {entry['omega_ratio']}: max_rel_err {err!r}")
        rows = outputs["csv"]
        if rows[:1] != ["omega_ratio,max_rel_err"] or len(rows) != len(sweep) + 1:
            errors.append("comparison.csv does not hold one row per ratio")
        else:
            for entry, row in zip(sweep, rows[1:]):
                if row != f"{entry['omega_ratio']!r},{entry['max_rel_err']!r}":
                    errors.append(f"comparison.csv row {row!r} disagrees with report.json")
        return errors


class PseudoScan:
    """`ptjc pseudo` of the similarity-deformed Fock model at 48 boson levels.

    The only workload for fockspace, pseudo and linalg: similarity,
    biorthogonal transport and diagnostics at dim 96, no integrator.
    Ops take tens of milliseconds, so per-op CLI overhead weighs most.
    """

    name = "pseudo-scan"
    residual_limit = 1e-9
    energy_tol = 1e-9

    def __init__(self, tiny: bool = False):
        self.boson_levels = 8 if tiny else 48

    def make_op(self, seed: int, index: int, workdir: Path) -> Op:
        rng = _rng(self.name, seed, index)
        p = {
            "alpha": rng.uniform(0.1, 0.5),
            "epsilon": rng.uniform(0.05, 0.2),
            "omega0": rng.uniform(0.9, 1.1),
            "omega": 1.0,
            "boson_levels": self.boson_levels,
        }
        config = _write_config(workdir, p)
        out = _fresh_out_dir(workdir)
        # States clear of the 4-level truncation guard: block 0 plus two per block.
        pairs = 1 + 2 * (self.boson_levels - 4)
        return Op(index=index, argv=["pseudo", "--config", config, "--output-dir", str(out)],
                  params=p, size={"dim": 2 * self.boson_levels, "pairs": pairs}, out_dir=out)

    def collect(self, op: Op) -> dict:
        return json.loads((op.out_dir / "pseudo.json").read_text(encoding="utf-8"))

    def check(self, op: Op, payload: dict) -> list:
        p = op.params
        errors = []
        res = payload.get("eigen_residual_max")
        if not (isinstance(res, float) and res <= self.residual_limit):
            errors.append(f"eigen_residual_max {res!r} exceeds {self.residual_limit}")
        got = payload.get("energies")
        want = block_energies(p["omega0"], p["omega"], p["epsilon"], self.boson_levels - 4)
        if not isinstance(got, list) or len(got) != len(want):
            errors.append(f"{len(got) if isinstance(got, list) else got!r} energies, "
                          f"expected {len(want)}")
            return errors
        dev = max(abs(a - b) / (1.0 + abs(b)) for a, b in zip(sorted(got), want))
        if not dev <= self.energy_tol:
            errors.append(f"energies deviate {dev:.3e} from the closed-form 2x2 blocks")
        return errors


WORKLOADS = {w.name: w for w in (EvolveDetuned, CompareSweep, PseudoScan)}



@dataclass
class OpResult:
    """Wall and CPU time of one op, and every problem found with it."""

    index: int
    wall_s: float
    cpu_s: float
    errors: list


def run_op(workload, op: Op, tracer=None, corrupt=None) -> OpResult:
    """Time ``ptjc.cli.main(op.argv)`` plus reading the outputs back, then check them.

    A non-zero exit code, an exception or a failed check makes the op
    failed.  ``tracer`` records spans for the op; ``corrupt(op)`` runs
    between the CLI call and the read-back, so a test can damage the
    outputs the checks see.
    """
    sink = io.StringIO()
    timing = tracer.active(op.index) if tracer is not None else contextlib.nullcontext()
    errors = []
    outputs = None
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        with timing:
            try:
                code = importlib.import_module("ptjc.cli").main(op.argv)
                if code == 0:
                    if corrupt is not None:
                        corrupt(op)
                    outputs = workload.collect(op)
                else:
                    tail = sink.getvalue().strip().splitlines()[-1:]
                    errors.append(f"exit code {code}: {' '.join(tail)}")
            except Exception as exc:  # any crash is a failed op, not a failed run
                errors.append(f"{type(exc).__name__}: {exc}")
        wall = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
    if outputs is not None:
        try:
            errors += workload.check(op, outputs)
        except Exception as exc:  # malformed outputs can break any check
            errors.append(f"check raised {type(exc).__name__}: {exc}")
    return OpResult(index=op.index, wall_s=wall, cpu_s=cpu, errors=errors)
