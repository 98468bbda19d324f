"""Command-line front end: deterministic JSON/CSV emission for all experiments.

Subcommands: solve-beta, evolve, compare, spectrum, pseudo.  Configs
are JSON documents with unknown keys rejected; outputs are JSON (with
a generated_by version field, no timestamps) and CSV time series, so
identical configs produce byte-identical files.

Exit codes: 0 success, 1 numerical failure, 2 usage or config error.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import __version__
from .bessel import bessel_j0
from .dynamics import (
    Frame,
    IntegrationError,
    ModulationSpec,
    ModulationTarget,
    bind_averaged_rhs,
    bind_driven_rhs,
    bind_static_rhs,
    check_rk4_stability,
    integrate,
    map_trajectory,
    suggested_step,
    write_csv,
    write_trajectory_csv,
)
from .equivalence import (
    ExperimentConfig,
    condition_argument,
    convergence_sweep,
    report_to_json_dict,
    run_equivalence_experiment,
    solve_modulation_beta,
    write_comparison_csv,
)
from .fockspace import FockSpace, build_h0
from .jc import JcParams, classify_pt_phase, dressed_spectrum
from .pseudo import build_biorthogonal_system, build_similarity, diagnostics_record

GENERATED_BY = f"ptjc {__version__}"

# Largest magnitude of an integer key or flag: float64 holds every
# integer up to 2^53 exactly, and n enters the physics as sqrt(n), n omega.
MAX_INT = 2**53


class ConfigError(ValueError):
    """Malformed or inconsistent configuration document."""


def _dump_json(payload: dict, path: str | None, make_parent: bool = False) -> str:
    """Serialize ``payload`` strictly, write it to ``path`` unless None, return the text.

    A non-finite value raises before any directory is made.
    """
    try:
        text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError:
        raise ArithmeticError(f"non-finite value in the payload of {path or 'stdout'}") from None
    if path is None:
        return text
    if make_parent:
        os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return text


def _complex_pair(z: complex) -> list:
    return [z.real, z.imag]


def _parse_real(value, context: str) -> float:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    raise ConfigError(f"{context}: expected a real number, got {value!r}")


def _parse_complex(value, context: str) -> complex:
    """A real number, or an [re, im] pair of real numbers."""
    if isinstance(value, list) and len(value) == 2:
        return complex(_parse_real(value[0], f"{context}[0]"),
                       _parse_real(value[1], f"{context}[1]"))
    return complex(_parse_real(value, f"{context} (or an [re, im] pair)"))


def _parse_int(value, context: str) -> int:
    integral = isinstance(value, float) and (value.is_integer() or abs(value) > MAX_INT)
    if not (integral or isinstance(value, int)) or isinstance(value, bool):
        raise ConfigError(f"{context}: expected an integer, got {value!r}")
    if abs(value) > MAX_INT:
        raise ConfigError(f"{context} exceeds 2^53 = {MAX_INT}, "
                          "the largest integer float64 holds exactly")
    return int(value)


def _int_flag(text: str) -> int:
    try:
        return _parse_int(int(text), "integer")
    except ValueError as exc:  # not an integer, or past MAX_INT
        raise argparse.ArgumentTypeError(str(exc)) from None


def _require_keys(doc: dict, allowed: set, context: str) -> None:
    if not isinstance(doc, dict):
        raise ConfigError(f"{context}: expected a JSON object")
    unknown = sorted(set(doc) - allowed)
    if unknown:
        raise ConfigError(f"{context}: unknown keys {unknown}")


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            # integers past 17 characters (above 2^53) become floats, named by _parse_int
            return json.load(fh, parse_int=lambda s: int(s) if len(s) <= 17 else float(s))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config {path} is not valid JSON at line {exc.lineno} column {exc.colno}: "
            f"{exc.msg}") from exc


def _target_from_name(name: str) -> ModulationTarget:
    try:
        return ModulationTarget(name)
    except ValueError:
        raise ConfigError(f"unknown modulation target {name!r}") from None


# ---------------------------------------------------------------------------
# solve-beta


def cmd_solve_beta(args) -> int:
    params = JcParams(omega0=args.omega0, omega=args.omega, coupling=args.coupling)
    target = _target_from_name(args.target)
    beta = solve_modulation_beta(params, target, args.n, args.big_omega,
                                 convention=args.convention)
    arg = condition_argument(params, target, args.n, args.big_omega, beta,
                             args.convention)
    residual = abs(bessel_j0(arg) - 1j)
    payload = {
        "beta": _complex_pair(beta),
        "condition_argument": _complex_pair(arg),
        "residual": residual,
        "target": target.value,
        "convention": args.convention,
        "generated_by": GENERATED_BY,
    }
    print(f"beta = {beta!r}  (|J0 - i| = {residual:.3e})")
    if args.output:
        _dump_json(payload, args.output)
    return 0


# ---------------------------------------------------------------------------
# evolve

_EVOLVE_KEYS = {"omega0", "omega", "coupling", "n", "modulation", "rhs",
                "initial_c", "initial_d", "t1", "step", "frames"}
_MODULATION_KEYS = {"target", "beta", "big_omega"}

_BINDERS = {"lab": functools.partial(bind_driven_rhs, frame=Frame.LAB),
            "gauged": functools.partial(bind_driven_rhs, frame=Frame.GAUGED),
            "averaged": bind_averaged_rhs,
            "static": lambda params, mod, n: bind_static_rhs(params, n)}


def _parse_modulation(doc, params: JcParams, n: int) -> ModulationSpec | None:
    if doc is None:
        return None
    _require_keys(doc, _MODULATION_KEYS, "modulation")
    for key in _MODULATION_KEYS:
        if key not in doc:
            raise ConfigError(f"modulation: missing key {key!r}")
    target = _target_from_name(doc["target"])
    big_omega = _parse_real(doc["big_omega"], "modulation.big_omega")
    beta_raw = doc["beta"]
    if beta_raw == "condition":
        beta = solve_modulation_beta(params, target, n, big_omega)
    else:
        beta = _parse_complex(beta_raw, "modulation.beta")
    return ModulationSpec(target=target, beta=beta, big_omega=big_omega)


def cmd_evolve(args) -> int:
    doc = _load_config(args.config)
    _require_keys(doc, _EVOLVE_KEYS, "evolve config")
    for key in ("omega0", "omega", "coupling", "n", "rhs", "initial_c",
                "initial_d", "t1"):
        if key not in doc:
            raise ConfigError(f"evolve config: missing key {key!r}")
    params = JcParams(omega0=_parse_real(doc["omega0"], "evolve.omega0"),
                      omega=_parse_real(doc["omega"], "evolve.omega"),
                      coupling=_parse_complex(doc["coupling"], "coupling"))
    n = _parse_int(doc["n"], "n")
    mod = _parse_modulation(doc.get("modulation"), params, n)
    rhs_name = doc["rhs"]
    if rhs_name not in _BINDERS:
        raise ConfigError(f"evolve config: unknown rhs {rhs_name!r}")
    if rhs_name != "static" and mod is None:
        raise ConfigError(f"evolve config: rhs {rhs_name!r} needs a modulation block")
    rhs = _BINDERS[rhs_name](params, mod, n)
    c0 = _parse_complex(doc["initial_c"], "initial_c")
    d0 = _parse_complex(doc["initial_d"], "initial_d")
    t1 = _parse_real(doc["t1"], "evolve.t1")
    step_raw = doc.get("step")
    step = (_parse_real(step_raw, "evolve.step") if step_raw is not None
            else suggested_step(mod, rhs))
    frames = doc.get("frames", [rhs.frame.value])
    if not isinstance(frames, list) or not frames:
        raise ConfigError("evolve config: frames must be a non-empty list")
    try:
        out_frames = [Frame(name) for name in frames]
    except ValueError as exc:
        raise ConfigError(f"evolve config: unknown frame ({exc})") from None
    if twice := next((f for i, f in enumerate(out_frames) if f in out_frames[:i]), None):
        raise ConfigError(f"evolve config: frame {twice.value!r} is listed twice")
    if Frame.GAUGED in out_frames and mod is None:
        raise ConfigError("evolve config: the gauged frame needs a modulation block")

    check_rk4_stability(rhs, step)
    traj = integrate(rhs, c0, d0, 0.0, t1, step)
    # map every frame before writing any, so a failed map writes nothing
    mapped_frames = [map_trajectory(traj, params, mod, f) for f in out_frames]
    os.makedirs(args.output_dir, exist_ok=True)
    paths = [os.path.join(args.output_dir, f"trajectory_{f.value}.csv") for f in out_frames]
    write_trajectory_csv(mapped_frames, paths)
    print("\n".join(f"wrote {path} ({len(traj)} samples)" for path in paths))
    return 0


# ---------------------------------------------------------------------------
# compare

_COMPARE_DEFAULTS = {
    "omega0": 1.0,
    "omega": 1.0,
    "coupling": 0.05,
    "target": "atom",
    "n": 1,
    "omega_ratio": 100.0,
    "duration_rabi_units": 2.0,
    "step_per_period": 400,
    "ratios": None,
    "convention": "splitting",
    "measure": "slow",
    "beta": None,
}
_COMPARE_KEYS = set(_COMPARE_DEFAULTS)


def parse_compare_config(doc: dict) -> dict:
    """Validated compare document with defaults applied."""
    _require_keys(doc, _COMPARE_KEYS, "compare config")
    merged = dict(_COMPARE_DEFAULTS)
    merged.update(doc)
    if merged["ratios"] is not None:
        if merged["beta"] is not None:
            raise ConfigError("compare config: a sweep solves beta for each of its ratios; "
                              "give 'ratios' or 'beta', not both")
        if not isinstance(merged["ratios"], list) or not merged["ratios"]:
            raise ConfigError("compare config: ratios must be a non-empty list of numbers")
        merged["ratios"] = [_parse_real(r, "compare.ratios") for r in merged["ratios"]]
    if merged["beta"] is not None:
        merged["beta"] = _parse_complex(merged["beta"], "compare.beta")
    for key in ("n", "step_per_period"):
        merged[key] = _parse_int(merged[key], f"compare.{key}")
    for key in ("omega0", "omega", "omega_ratio", "duration_rabi_units"):
        merged[key] = _parse_real(merged[key], f"compare.{key}")
    return merged


def cmd_compare(args) -> int:
    doc = _load_config(args.config) if args.config else {}
    merged = parse_compare_config(doc)
    params = JcParams(omega0=merged["omega0"], omega=merged["omega"],
                      coupling=_parse_complex(merged["coupling"], "coupling"))
    cfg = ExperimentConfig(
        params=params,
        target=_target_from_name(merged["target"]),
        n=merged["n"],
        omega_ratio=merged["omega_ratio"],
        duration_rabi_units=merged["duration_rabi_units"],
        step_per_period=merged["step_per_period"],
    )
    report_path = os.path.join(args.output_dir, "report.json")
    csv_path = os.path.join(args.output_dir, "comparison.csv")

    if merged["ratios"] is not None:
        curve = convergence_sweep(cfg, merged["ratios"],
                                  convention=merged["convention"],
                                  measure=merged["measure"])
        payload = {
            "sweep": [{"omega_ratio": r, "max_rel_err": e} for r, e in curve],
            "convention": merged["convention"],
            "measure": merged["measure"],
            "generated_by": GENERATED_BY,
        }
        _dump_json(payload, report_path, make_parent=True)
        write_csv("omega_ratio,max_rel_err", [(csv_path, zip(*curve), "")])
        print(f"sweep of {len(curve)} ratios written; first error {curve[0][1]!r}")
        return 0

    report = run_equivalence_experiment(cfg, beta=merged["beta"],
                                        convention=merged["convention"],
                                        measure=merged["measure"])
    payload = report_to_json_dict(report)
    payload["generated_by"] = GENERATED_BY
    _dump_json(payload, report_path, make_parent=True)
    write_comparison_csv(report, csv_path)
    print(f"max_rel_err = {report.max_rel_err!r}, rms_err = {report.rms_err!r}")
    return 0


# ---------------------------------------------------------------------------
# spectrum


def cmd_spectrum(args) -> int:
    coupling = complex(args.g_real, args.g_imag)
    params = JcParams(omega0=args.omega0, omega=args.omega, coupling=coupling)
    spec = dressed_spectrum(params, args.n)
    payload = {
        "n": args.n,
        "detuning": params.detuning(),
        "big_delta": _complex_pair(spec.big_delta),
        "e_plus": _complex_pair(spec.e_plus),
        "e_minus": _complex_pair(spec.e_minus),
        "generated_by": GENERATED_BY,
    }
    if coupling.real == 0.0:
        phase = classify_pt_phase(params, args.n)
        payload["pt_phase"] = phase.kind.value
        payload["pt_discriminant"] = phase.discriminant
    else:
        payload["pt_phase"] = None
        payload["pt_discriminant"] = None
    print(_dump_json(payload, args.output), end="")
    return 0


# ---------------------------------------------------------------------------
# pseudo

_PSEUDO_DEFAULTS = {
    "alpha": 0.5,
    "boson_levels": 32,
    "epsilon": 0.1,
    "omega0": 1.0,
    "omega": 1.0,
    "count": None,
}


def cmd_pseudo(args) -> int:
    doc = _load_config(args.config) if args.config else {}
    _require_keys(doc, set(_PSEUDO_DEFAULTS), "pseudo config")
    merged = dict(_PSEUDO_DEFAULTS)
    merged.update(doc)
    params = JcParams(omega0=_parse_real(merged["omega0"], "pseudo.omega0"),
                      omega=_parse_real(merged["omega"], "pseudo.omega"),
                      coupling=_parse_complex(merged["epsilon"], "epsilon"))
    space = FockSpace(boson_levels=_parse_int(merged["boson_levels"], "pseudo.boson_levels"))
    count = None if merged["count"] is None else _parse_int(merged["count"], "pseudo.count")
    h0 = build_h0(params, space)
    smap = build_similarity(space, _parse_real(merged["alpha"], "pseudo.alpha"))
    system = build_biorthogonal_system(h0, smap, count)
    payload = diagnostics_record(system, smap, h0, params)
    payload["generated_by"] = GENERATED_BY
    path = os.path.join(args.output_dir, "pseudo.json")
    _dump_json(payload, path, make_parent=True)
    print(f"wrote {path} (eigen_residual_max = {payload['eigen_residual_max']!r})")
    return 0


# ---------------------------------------------------------------------------
# parser and dispatch


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ptjc parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="ptjc",
        description="Driven and similarity-deformed two-state block experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve-beta", help="modulation depth from the J0 = i condition")
    p.add_argument("--target", required=True, choices=["atom", "cavity"])
    p.add_argument("--omega0", type=float, default=1.0)
    p.add_argument("--omega", type=float, default=1.0)
    p.add_argument("--n", type=_int_flag, default=1)
    p.add_argument("--big-omega", dest="big_omega", type=float, required=True)
    p.add_argument("--coupling", type=float, default=0.05)
    p.add_argument("--convention", choices=["gauge", "splitting"], default="gauge")
    p.add_argument("--output", default=None, help="optional JSON output path")
    p.set_defaults(func=cmd_solve_beta)

    p = sub.add_parser("evolve", help="integrate one configuration, write CSV per frame")
    p.add_argument("--config", required=True)
    p.add_argument("--output-dir", dest="output_dir", required=True)
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("compare", help="driven-vs-static comparison (headline defaults)")
    p.add_argument("--config", default=None)
    p.add_argument("--output-dir", dest="output_dir", default=".")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("spectrum", help="dressed block spectrum and PT phase")
    p.add_argument("--omega0", type=float, required=True)
    p.add_argument("--omega", type=float, required=True)
    p.add_argument("--g-real", dest="g_real", type=float, default=0.0)
    p.add_argument("--g-imag", dest="g_imag", type=float, default=0.0)
    p.add_argument("--n", type=_int_flag, default=1)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("pseudo", help="similarity-deformed diagnostics JSON")
    p.add_argument("--config", default=None)
    p.add_argument("--output-dir", dest="output_dir", default=".")
    p.set_defaults(func=cmd_pseudo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"argument error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, IntegrationError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
