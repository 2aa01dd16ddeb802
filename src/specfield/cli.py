"""Command-line entry point: one subcommand per capability.

Exit codes: 0 success, 1 validation/config error, 2 internal-consistency
error, 64 usage error (unknown subcommand, bad flags).  JSON goes to
reports, CSV to per-replication raw data; everything is deterministic in
the config's master seed.  SPECFIELD_THREADS overrides the replication
worker count.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from .blocking import MixingProfile, block_index_sets, negligibility_report, plan
from .domain import BoxDims, Frequency
from .fieldgen import LinearFieldSpec, _spec_from_doc, generate
from .frequencies import FrequencyScheme
from .kernels import dirichlet_mod, fejer
from .mixing import rho_prime_profile
from .periodogram import modulated_sum, periodogram
from .spectral import (InternalConsistencyError, covariance_of_sums,
                       expected_periodogram_exact, expected_periodogram_quadrature,
                       product_of_sums, uniform_convergence_report)
from .stats import miller_check, run_clt_experiment

USAGE_EXIT = 64
VALIDATION_EXIT = 1
INTERNAL_EXIT = 2


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems with exit 64 instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(USAGE_EXIT)


def _parse_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise ValueError(f"expected comma-separated integers, got {text!r}") from exc


def _parse_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError as exc:
        raise ValueError(f"expected comma-separated reals, got {text!r}") from exc


def _parse_dims_sequence(text: str) -> list[tuple[int, ...]]:
    return [_parse_ints(part) for part in text.split(";") if part]


def _load_json_file(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"{path}: malformed JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from exc


def _load_field_spec(path: str) -> LinearFieldSpec:
    return _spec_from_doc(_load_json_file(path))


def _emit(doc, out_path: str | None):
    """Write a JSON report to ``out_path``, or to stdout.  ``doc`` is either
    already-serialised text or a JSON value, serialised refusing NaN and inf."""
    if not isinstance(doc, str):
        doc = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    text = doc + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_int(value, name: str) -> int:
    """A JSON integer as is; floats and bools are refused, never truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"field {name!r} must be an integer, got {json.dumps(value)}")
    return value


def _json_real(value, name: str) -> float:
    """A finite JSON number as a float; bools, strings, NaN and infinities are refused."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not -sys.float_info.max <= value <= sys.float_info.max):
        raise ValueError(f"field {name!r} must be a real number, got {json.dumps(value)}")
    return float(value)


@dataclass
class ExperimentConfig:
    """Validated contents of an experiment config document."""

    spec: LinearFieldSpec
    scheme: FrequencyScheme
    dims: BoxDims | None
    dims_sequence: list[BoxDims]
    replications: int
    seed: int
    q: float | None
    weights: list[float] | None


def _config_from_doc(doc) -> ExperimentConfig:
    try:
        spec = _spec_from_doc(doc["spec"])
        dims = BoxDims(tuple(doc["dims"])) if "dims" in doc else None
        seq = [BoxDims(tuple(v)) for v in doc.get("dims_sequence", [])]
        scheme_doc = doc["scheme"]
        base = Frequency(tuple(scheme_doc["base"]))
        m = _json_int(scheme_doc["m"], "scheme.m")
        delta = _json_real(scheme_doc["delta"], "scheme.delta")
        axis = _json_int(scheme_doc.get("axis", 0), "scheme.axis")
        replications = _json_int(doc["R"], "R")
        seed = _json_int(doc["seed"], "seed")
        q = _json_real(doc["q"], "q") if "q" in doc else None
        weights = ([_json_real(x, f"weights[{i}]") for i, x in enumerate(doc["weights"])]
                   if "weights" in doc else None)
    except KeyError as exc:
        raise ValueError(f"config is missing required field {exc}") from exc
    except TypeError as exc:
        raise ValueError(f"malformed config document: {exc}") from exc
    if dims is None and not seq:
        raise ValueError("config needs 'dims' or a non-empty 'dims_sequence'")
    all_dims = seq if seq else [dims]
    mins = [min(d.v) for d in all_dims]
    if any(b <= a for a, b in zip(mins, mins[1:])):
        raise ValueError("dims_sequence must have strictly growing minimum side")
    scheme = FrequencyScheme.separated(base, m, delta, axis, all_dims)
    return ExperimentConfig(spec=spec, scheme=scheme, dims=dims, dims_sequence=seq,
                            replications=replications, seed=seed, q=q, weights=weights)


def _cmd_kernels(args) -> int:
    doc = {
        "alpha": args.alpha,
        "n": args.n,
        "fejer": fejer(args.alpha, args.n),
        "dirichlet": {
            "re": dirichlet_mod(args.alpha, args.n).real,
            "im": dirichlet_mod(args.alpha, args.n).imag,
        },
    }
    _emit(doc, args.out)
    return 0


def _cmd_periodogram(args) -> int:
    spec = _load_field_spec(args.spec)
    dims = BoxDims(_parse_ints(args.dims))
    freq = Frequency(_parse_floats(args.freq))
    shift = _parse_ints(args.shift) if args.shift else None
    sample = generate(spec, dims, shift, args.seed)
    s = modulated_sum(sample, freq)
    doc = {
        "dims": list(dims.v),
        "freq": list(freq.coords),
        "seed": args.seed,
        "S": {"re": s.real, "im": s.imag},
        "I": periodogram(sample, freq),
    }
    _emit(doc, args.out)
    return 0


def _cmd_expectation(args) -> int:
    spec = _load_field_spec(args.spec)
    if args.report_csv:
        if not args.dims_sequence:
            raise ValueError("--report-csv needs --dims-sequence")
        seq = _parse_dims_sequence(args.dims_sequence)
        report = uniform_convergence_report(spec, seq, args.grid)
        with open(args.report_csv, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["n", "v", "sup_err"])
            for row in report.rows:
                writer.writerow([row.index, "x".join(str(s) for s in row.dims),
                                 repr(row.sup_err)])
        return 0
    if not (args.dims and args.freq):
        raise ValueError("expectation needs --dims and --freq "
                         "(or --report-csv with --dims-sequence)")
    dims = BoxDims(_parse_ints(args.dims))
    freq = Frequency(_parse_floats(args.freq))
    doc = {
        "dims": list(dims.v),
        "freq": list(freq.coords),
        "exact": expected_periodogram_exact(spec, freq, dims),
    }
    if args.quadrature:
        doc["quadrature"] = expected_periodogram_quadrature(spec, freq, dims,
                                                            args.quadrature)
    _emit(doc, args.out)
    return 0


def _cmd_covariance(args) -> int:
    spec = _load_field_spec(args.spec)
    dims = BoxDims(_parse_ints(args.dims))
    lam = Frequency(_parse_floats(args.freq))
    mu = Frequency(_parse_floats(args.freq2))
    cov = covariance_of_sums(spec, lam, mu, dims)
    prod = product_of_sums(spec, lam, mu, dims)
    doc = {
        "dims": list(dims.v),
        "freq": list(lam.coords),
        "freq2": list(mu.coords),
        "covariance": {"re": cov.real, "im": cov.imag, "abs": abs(cov)},
        "product": {"re": prod.real, "im": prod.imag, "abs": abs(prod)},
    }
    _emit(doc, args.out)
    return 0


def _cmd_clt(args) -> int:
    cfg = _config_from_doc(_load_json_file(args.config))
    dims = cfg.dims if cfg.dims is not None else cfg.dims_sequence[-1]
    report = run_clt_experiment(cfg.spec, cfg.scheme, dims, cfg.replications, cfg.seed)
    _emit(report.to_json(), args.out)
    if args.csv:
        m = len(report.frequencies)
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            header = ["replication"]
            for j in range(1, m + 1):
                header += [f"s{j}_re", f"s{j}_im", f"i{j}"]
            writer.writerow(header)
            for r in range(report.replications):
                row = [r]
                for j in range(m):
                    s = complex(report.raw_sums[r, j])
                    row += [repr(s.real), repr(s.imag),
                            repr(float(report.raw_periodograms[r, j]))]
                writer.writerow(row)
    return 0


def _cmd_miller(args) -> int:
    cfg = _config_from_doc(_load_json_file(args.config))
    if cfg.weights is None:
        raise ValueError("miller config needs 'weights'")
    seq = cfg.dims_sequence if cfg.dims_sequence else [cfg.dims]
    report = miller_check(cfg.spec, cfg.scheme, cfg.weights, seq,
                          cfg.replications, cfg.seed)
    _emit(report.to_json(), args.out)
    return 0


def _cmd_blocking_plan(args) -> int:
    profile_doc = _load_json_file(args.profile)
    try:
        values = {int(k): float(v) for k, v in profile_doc.get("values", {}).items()}
        dep = profile_doc.get("dependence_range")
        dep = None if dep is None else _json_int(dep, "dependence_range")
    except (AttributeError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed profile document: {exc}") from exc
    profile = MixingProfile(values=values, dependence_range=dep)
    pl = plan(args.v1, profile, args.q)
    blocks, leftover = block_index_sets(pl, (pl.v1,))
    doc = {
        "v1": pl.v1, "s": pl.s, "p": pl.p, "r": pl.r, "q": pl.q,
        "block_first_ranges": [[b.first_lo, b.first_hi] for b in blocks],
        "block_cardinality_per_unit_cross_section": blocks[0].width,
        "leftover_first_ranges": [[z.first_lo, z.first_hi] for z in leftover],
        "leftover_width": pl.leftover_width,
    }
    _emit(doc, args.out)
    return 0


def _cmd_negligibility(args) -> int:
    cfg = _config_from_doc(_load_json_file(args.config))
    if cfg.q is None or cfg.weights is None:
        raise ValueError("negligibility config needs 'q' and 'weights'")
    seq = cfg.dims_sequence if cfg.dims_sequence else [cfg.dims]
    report = negligibility_report(cfg.spec, cfg.scheme, seq, cfg.q, cfg.weights,
                                  cfg.replications, cfg.seed)
    _emit(asdict(report), args.out)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["n", "v1", "leftover_mean", "leftover_se",
                             "tail_mean", "tail_se"])
            for row in report.rows:
                writer.writerow([row.index, row.v1, repr(row.leftover_mean),
                                 repr(row.leftover_se), repr(row.tail_mean),
                                 repr(row.tail_se)])
    return 0


def _cmd_mixing_estimate(args) -> int:
    spec = _load_field_spec(args.spec)
    profile = rho_prime_profile(spec, args.window, args.set_size, args.n_max)
    doc = {
        "values": {str(n): v for n, v in profile.values.items()},
        "dependence_range": profile.dependence_range,
    }
    _emit(doc, args.out)
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="specfield",
                     description="spectral analysis of stationary lattice random fields")
    parser.add_argument("--version", action="version", version=f"specfield {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="subcommand")

    p = sub.add_parser("kernels", help="evaluate the Fejer and Dirichlet kernels")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_kernels)

    p = sub.add_parser("periodogram", help="one modulated sum and periodogram value")
    p.add_argument("--spec", required=True, help="field spec JSON file")
    p.add_argument("--dims", required=True, help="comma-separated box sides")
    p.add_argument("--freq", required=True, help="comma-separated frequency")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--shift", help="comma-separated box shift")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_periodogram)

    p = sub.add_parser("expectation", help="expected periodogram, exact and quadrature")
    p.add_argument("--spec", required=True)
    p.add_argument("--dims")
    p.add_argument("--freq")
    p.add_argument("--quadrature", type=int, help="quadrature grid points per axis")
    p.add_argument("--report-csv", help="write a sup-error convergence report CSV")
    p.add_argument("--dims-sequence", help="semicolon-separated dims, e.g. 8;16;32")
    p.add_argument("--grid", type=int, default=128, help="frequency grid size")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_expectation)

    p = sub.add_parser("covariance",
                       help="exact covariance and no-conjugate product of two sums")
    p.add_argument("--spec", required=True)
    p.add_argument("--dims", required=True)
    p.add_argument("--freq", required=True)
    p.add_argument("--freq2", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_covariance)

    p = sub.add_parser("clt-experiment", help="replicated limit-law diagnostics")
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    p.add_argument("--csv", help="per-replication raw data CSV")
    p.set_defaults(func=_cmd_clt)

    p = sub.add_parser("miller", help="weighted-functional convergence table")
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_miller)

    p = sub.add_parser("blocking-plan", help="Bernstein blocking integers")
    p.add_argument("--v1", type=int, required=True)
    p.add_argument("--profile", required=True, help="mixing profile JSON file")
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_blocking_plan)

    p = sub.add_parser("negligibility", help="leftover/tail second-moment table")
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    p.add_argument("--csv")
    p.set_defaults(func=_cmd_negligibility)

    p = sub.add_parser("mixing-estimate", help="rho' lower-bound profile")
    p.add_argument("--spec", required=True)
    p.add_argument("--window", type=int, required=True)
    p.add_argument("--set-size", dest="set_size", type=int, required=True)
    p.add_argument("--n-max", dest="n_max", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_mixing_estimate)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "func", None):
        parser.print_usage(sys.stderr)
        return USAGE_EXIT
    try:
        return args.func(args)
    except InternalConsistencyError as exc:
        sys.stderr.write(f"internal consistency error: {exc}\n")
        return INTERNAL_EXIT
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return VALIDATION_EXIT


if __name__ == "__main__":
    sys.exit(main())
