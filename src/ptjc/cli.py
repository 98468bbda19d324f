"""Command-line front end: deterministic JSON/CSV emission for all experiments.

Subcommands: solve-beta, evolve, compare, spectrum, pseudo.  Configs
are JSON documents, each read through its command's key table
(``_EVOLVE``, ``_COMPARE``, ``_PSEUDO``) by ``_parse_doc``; outputs are
JSON (with a generated_by version field, no timestamps) and CSV time
series, so identical configs produce byte-identical files.

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
    step_count,
    suggested_step,
    write_csv,
    write_trajectory_csv,
)
from .equivalence import (
    GAUGE_CONVENTION,
    PRINTED_MEASURE,
    SLOW_MEASURE,
    SPLITTING_CONVENTION,
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

# Bytes an evolve run's samples may take: 40 a sample for the times and the
# integrated (c, d), and 32 a sample for each frame written.
EVOLVE_BYTES_MAX = 2**29


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


def _one_of(*names: str):
    """Parser of a string that must be one of ``names``."""
    def parse(value, context: str) -> str:
        if isinstance(value, str) and value in names:
            return value
        raise ConfigError(f"{context}: expected one of {list(names)}, got {value!r}")
    return parse


def _enum(cls):
    """Parser of the value of a member of the enum ``cls``, returning the member."""
    parse_name = _one_of(*(member.value for member in cls))
    return lambda value, context: cls(parse_name(value, context))


def _list_of(parse_item):
    """Parser of a non-empty list, each entry read by ``parse_item``."""
    def parse(value, context: str) -> list:
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{context}: expected a non-empty list, got {value!r}")
        return [parse_item(item, context) for item in value]
    return parse


# The default of a key that every document must give.
REQUIRED = object()


def _parse_doc(doc, context: str, table: dict) -> dict:
    """Every key of ``table`` (key -> (parser, default)) read from ``doc``.

    Unknown keys and a missing REQUIRED key are refused, naming them.  Every
    value, defaults included, goes through its key's parser as ``<context>.<key>``,
    except null (or absence) where the default is None, which reads as None.
    """
    if not isinstance(doc, dict):
        raise ConfigError(f"{context}: expected a JSON object")
    unknown = sorted(set(doc) - set(table))
    if unknown:
        raise ConfigError(f"{context}: unknown keys {unknown}")
    parsed = {}
    for key, (parse, default) in table.items():
        value = doc.get(key, default)
        if value is REQUIRED:
            raise ConfigError(f"{context}: missing key {key!r}")
        parsed[key] = None if value is None and default is None else parse(
            value, f"{context}.{key}")
    return parsed


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


# ---------------------------------------------------------------------------
# solve-beta


def cmd_solve_beta(args) -> int:
    params = JcParams(omega0=args.omega0, omega=args.omega)
    target = ModulationTarget(args.target)
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

_BINDERS = {"lab": functools.partial(bind_driven_rhs, frame=Frame.LAB),
            "gauged": functools.partial(bind_driven_rhs, frame=Frame.GAUGED),
            "averaged": bind_averaged_rhs,
            "static": lambda params, mod, n: bind_static_rhs(params, n)}


def _parse_frames(value, context: str) -> list:
    frames = _list_of(_enum(Frame))(value, context)
    if twice := next((f for i, f in enumerate(frames) if f in frames[:i]), None):
        raise ConfigError(f"{context}: frame {twice.value!r} is listed twice")
    return frames


_MODULATION = {
    "target": (_enum(ModulationTarget), REQUIRED),
    # "condition" stays a string until params and n are known
    "beta": (lambda v, ctx: v if v == "condition" else _parse_complex(v, ctx), REQUIRED),
    "big_omega": (_parse_real, REQUIRED),
}

_EVOLVE = {
    "omega0": (_parse_real, REQUIRED),
    "omega": (_parse_real, REQUIRED),
    "coupling": (_parse_complex, REQUIRED),
    "n": (_parse_int, REQUIRED),
    "modulation": (functools.partial(_parse_doc, table=_MODULATION), None),
    "rhs": (_one_of(*_BINDERS), REQUIRED),
    "initial_c": (_parse_complex, REQUIRED),
    "initial_d": (_parse_complex, REQUIRED),
    "t1": (_parse_real, REQUIRED),
    "step": (_parse_real, None),  # None: suggested_step
    "frames": (_parse_frames, None),  # None: the frame the rhs integrates in
}


def cmd_evolve(args) -> int:
    doc = _parse_doc(_load_config(args.config), "evolve", _EVOLVE)
    params = JcParams(omega0=doc["omega0"], omega=doc["omega"], coupling=doc["coupling"])
    n, mod = doc["n"], doc["modulation"]
    if mod is not None:
        if mod["beta"] == "condition":
            mod["beta"] = solve_modulation_beta(params, mod["target"], n, mod["big_omega"])
        mod = ModulationSpec(**mod)
    if doc["rhs"] != "static" and mod is None:
        raise ConfigError(f"evolve config: rhs {doc['rhs']!r} needs a modulation block")
    rhs = _BINDERS[doc["rhs"]](params, mod, n)
    step = doc["step"] if doc["step"] is not None else suggested_step(mod, rhs)
    out_frames = doc["frames"] or [rhs.frame]
    if Frame.GAUGED in out_frames and mod is None:
        raise ConfigError("evolve config: the gauged frame needs a modulation block")

    check_rk4_stability(rhs, step)
    samples = step_count(doc["t1"], step) + 1
    if (need := samples * (40 + 32 * len(out_frames))) > EVOLVE_BYTES_MAX:
        raise ConfigError(f"evolve config: {samples} samples in {len(out_frames)} frame(s) "
                          f"take {need} bytes, past the budget of {EVOLVE_BYTES_MAX} bytes")
    traj = integrate(rhs, doc["initial_c"], doc["initial_d"], doc["t1"], step)
    # map every frame before writing any, so a failed map writes nothing
    mapped_frames = [map_trajectory(traj, params, mod, f) for f in out_frames]
    os.makedirs(args.output_dir, exist_ok=True)
    paths = [os.path.join(args.output_dir, f"trajectory_{f.value}.csv") for f in out_frames]
    write_trajectory_csv(mapped_frames, paths)
    print("\n".join(f"wrote {path} ({len(traj)} samples)" for path in paths))
    return 0


# ---------------------------------------------------------------------------
# compare

_COMPARE = {
    "omega0": (_parse_real, 1.0),
    "omega": (_parse_real, 1.0),
    "coupling": (_parse_complex, 0.05),
    "target": (_enum(ModulationTarget), "atom"),
    "n": (_parse_int, 1),
    "omega_ratio": (_parse_real, 100.0),
    "duration_rabi_units": (_parse_real, 2.0),
    "step_per_period": (_parse_int, 400),
    "ratios": (_list_of(_parse_real), None),  # None: one run, not a sweep
    "convention": (_one_of(GAUGE_CONVENTION, SPLITTING_CONVENTION), SPLITTING_CONVENTION),
    "measure": (_one_of(PRINTED_MEASURE, SLOW_MEASURE), SLOW_MEASURE),
    "beta": (_parse_complex, None),  # None: solved from the convention
}


def cmd_compare(args) -> int:
    doc = _parse_doc(_load_config(args.config) if args.config else {}, "compare", _COMPARE)
    if doc["ratios"] is not None and doc["beta"] is not None:
        raise ConfigError("compare config: a sweep solves beta for each of its ratios; "
                          "give 'ratios' or 'beta', not both")
    params = JcParams(omega0=doc["omega0"], omega=doc["omega"], coupling=doc["coupling"])
    cfg = ExperimentConfig(params=params, target=doc["target"], n=doc["n"],
                           omega_ratio=doc["omega_ratio"],
                           duration_rabi_units=doc["duration_rabi_units"],
                           step_per_period=doc["step_per_period"])
    report_path = os.path.join(args.output_dir, "report.json")
    csv_path = os.path.join(args.output_dir, "comparison.csv")

    if doc["ratios"] is not None:
        curve = convergence_sweep(cfg, doc["ratios"], convention=doc["convention"],
                                  measure=doc["measure"])
        payload = {
            "sweep": [{"omega_ratio": r, "max_rel_err": e} for r, e in curve],
            "convention": doc["convention"],
            "measure": doc["measure"],
            "generated_by": GENERATED_BY,
        }
        _dump_json(payload, report_path, make_parent=True)
        write_csv("omega_ratio,max_rel_err", [(csv_path, zip(*curve), "")])
        print(f"sweep of {len(curve)} ratios written; first error {curve[0][1]!r}")
        return 0

    report = run_equivalence_experiment(cfg, beta=doc["beta"], convention=doc["convention"],
                                        measure=doc["measure"])
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

_PSEUDO = {
    "alpha": (_parse_real, 0.5),
    "boson_levels": (_parse_int, 32),
    "epsilon": (_parse_complex, 0.1),
    "omega0": (_parse_real, 1.0),
    "omega": (_parse_real, 1.0),
    "count": (_parse_int, None),  # None: the truncation-safe budget
}


def cmd_pseudo(args) -> int:
    doc = _parse_doc(_load_config(args.config) if args.config else {}, "pseudo", _PSEUDO)
    params = JcParams(omega0=doc["omega0"], omega=doc["omega"], coupling=doc["epsilon"])
    space = FockSpace(boson_levels=doc["boson_levels"])
    h0 = build_h0(params, space)
    smap = build_similarity(space, doc["alpha"])
    system = build_biorthogonal_system(h0, smap, doc["count"])
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
