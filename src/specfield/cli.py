"""Command-line entry point: one subcommand per capability.

Exit codes: 0 success, 1 validation/config error, 2 internal-consistency
or other internal error, 64 usage error (unknown subcommand, bad flags);
every failure is one stderr line, never a traceback.  JSON goes to
reports, CSV to per-replication raw data; everything is deterministic in
the config's master seed.  SPECFIELD_THREADS caps the forked replication
worker processes, as do the usable CPUs.  Each command imports the modules
it runs inside its handler, so a process loads only what its command needs.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from typing import NamedTuple

from . import __version__
from ._util import InternalConsistencyError

USAGE_EXIT = 64
VALIDATION_EXIT = 1
INTERNAL_EXIT = 2


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems in one line, with exit 64 instead of 2."""

    def error(self, message):
        usage = " ".join(self.format_usage().split())
        sys.stderr.write(f"{self.prog}: error: {message}; {usage}\n")
        sys.exit(USAGE_EXIT)


def _parse_list(text: str, kind=int) -> tuple:
    """Comma-separated integers (``kind=int``) or reals (``kind=float``)."""
    try:
        return tuple(kind(x) for x in text.split(","))
    except ValueError as exc:
        what = "integers" if kind is int else "reals"
        raise ValueError(f"expected comma-separated {what}, got {text!r}") from exc


def _parse_dims_sequence(text: str) -> list[tuple[int, ...]]:
    if "" in text.split(";"):
        raise ValueError(f"--dims-sequence has an empty entry: {text!r}")
    return [_parse_list(part) for part in text.split(";")]


def _load_json_file(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"{path}: malformed JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from exc


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


def _write_csv(path: str, header, rows):
    """Write ``header`` and then ``rows`` to a utf-8 CSV file at ``path``."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


class ExperimentConfig(NamedTuple):
    """Validated contents of an experiment config document."""

    spec: LinearFieldSpec
    scheme: FrequencyScheme   # its dims_sequence is (dims,) for a config that gives 'dims'
    replications: int
    seed: int
    q: float | None
    weights: list[float] | None


def _config_from_doc(doc) -> ExperimentConfig:
    from .domain import BoxDims, Frequency, _json_int, _json_list, _json_object, _json_real
    from .frequencies import FrequencyScheme
    from .model import _spec_from_doc

    try:
        doc = _json_object(doc, "", ("spec", "dims", "dims_sequence", "scheme", "R", "seed",
                                     "q", "weights"))
        spec = _spec_from_doc(doc["spec"], "spec.")
        dims = BoxDims(_json_list(doc["dims"], "dims", _json_int)) if "dims" in doc else None
        seq = _json_list(doc.get("dims_sequence", []), "dims_sequence",
                         lambda v, at: BoxDims(_json_list(v, at, _json_int)))
        scheme_doc = _json_object(doc["scheme"], "scheme", ("base", "m", "delta", "axis"))
        base = Frequency(tuple(_json_list(scheme_doc["base"], "scheme.base", _json_real)))
        m = _json_int(scheme_doc["m"], "scheme.m")
        delta = _json_real(scheme_doc["delta"], "scheme.delta")
        axis = _json_int(scheme_doc.get("axis", 0), "scheme.axis")
        replications = _json_int(doc["R"], "R")
        seed = _json_int(doc["seed"], "seed")
        q = _json_real(doc["q"], "q") if "q" in doc else None
        weights = _json_list(doc["weights"], "weights", _json_real) if "weights" in doc else None
    except KeyError as exc:
        raise ValueError(f"config is missing required field {exc}") from exc
    except TypeError as exc:
        raise ValueError(f"malformed config document: {exc}") from exc
    if dims is not None and "dims_sequence" in doc:
        raise ValueError("config gives both 'dims' and 'dims_sequence'; give one of them")
    if dims is None and not seq:
        raise ValueError("config needs 'dims' or a non-empty 'dims_sequence'")
    all_dims = seq if seq else [dims]
    mins = [min(d.v) for d in all_dims]
    if any(b <= a for a, b in zip(mins, mins[1:])):
        raise ValueError("dims_sequence must have strictly growing minimum side")
    scheme = FrequencyScheme.separated(base, m, delta, axis, all_dims)
    return ExperimentConfig(spec=spec, scheme=scheme, replications=replications, seed=seed,
                            q=q, weights=weights)


def _cmd_kernels(args) -> dict:
    from .kernels import dirichlet_mod, fejer

    if not math.isfinite(args.alpha):
        raise ValueError(f"--alpha must be a finite real, got {args.alpha}")
    d = dirichlet_mod(args.alpha, args.n)
    return {
        "alpha": args.alpha,
        "n": args.n,
        "fejer": fejer(args.alpha, args.n),
        "dirichlet": {"re": d.real, "im": d.imag},
    }


def _cmd_periodogram(args) -> dict:
    from .domain import BoxDims, Frequency
    from .fieldgen import generate
    from .model import _spec_from_doc
    from .periodogram import periodogram_vector

    spec = _spec_from_doc(_load_json_file(args.spec))
    dims = BoxDims(_parse_list(args.dims))
    freq = Frequency(_parse_list(args.freq, float))
    shift = _parse_list(args.shift) if args.shift else None
    sample = generate(spec, dims, shift, args.seed)
    [(s, i)] = periodogram_vector(sample, [freq])
    return {
        "dims": list(dims.v),
        "freq": list(freq.coords),
        "seed": args.seed,
        "S": {"re": s.real, "im": s.imag},
        "I": i,
    }


def _cmd_expectation(args) -> dict | None:
    from .domain import BoxDims, Frequency
    from .model import _spec_from_doc
    from .spectral import (expected_periodogram_exact, expected_periodogram_quadrature,
                           uniform_convergence_report)

    spec = _spec_from_doc(_load_json_file(args.spec))
    if args.report_csv:
        if not args.dims_sequence:
            raise ValueError("--report-csv needs --dims-sequence")
        seq = _parse_dims_sequence(args.dims_sequence)
        report = uniform_convergence_report(spec, seq, args.grid)
        _write_csv(args.report_csv, ["n", "v", "sup_err"],
                   ([row.index, "x".join(str(s) for s in row.dims), repr(row.sup_err)]
                    for row in report.rows))
        return None
    if not (args.dims and args.freq):
        raise ValueError("expectation needs --dims and --freq "
                         "(or --report-csv with --dims-sequence)")
    dims = BoxDims(_parse_list(args.dims))
    freq = Frequency(_parse_list(args.freq, float))
    doc = {
        "dims": list(dims.v),
        "freq": list(freq.coords),
        "exact": expected_periodogram_exact(spec, freq, dims),
    }
    if args.quadrature is not None:
        doc["quadrature"] = expected_periodogram_quadrature(spec, freq, dims,
                                                            args.quadrature)
    return doc


def _cmd_covariance(args) -> dict:
    from .domain import BoxDims, Frequency
    from .model import _spec_from_doc
    from .spectral import covariance_of_sums, product_of_sums

    spec = _spec_from_doc(_load_json_file(args.spec))
    dims = BoxDims(_parse_list(args.dims))
    lam = Frequency(_parse_list(args.freq, float))
    mu = Frequency(_parse_list(args.freq2, float))
    cov = covariance_of_sums(spec, lam, mu, dims)
    prod = product_of_sums(spec, lam, mu, dims)
    return {
        "dims": list(dims.v),
        "freq": list(lam.coords),
        "freq2": list(mu.coords),
        "covariance": {"re": cov.real, "im": cov.imag, "abs": abs(cov)},
        "product": {"re": prod.real, "im": prod.imag, "abs": abs(prod)},
    }


def _cmd_clt(args) -> str:
    from .stats import run_clt_experiment

    cfg = _config_from_doc(_load_json_file(args.config))
    report = run_clt_experiment(cfg.spec, cfg.scheme, cfg.scheme.dims_sequence[-1],
                                cfg.replications, cfg.seed)
    if args.csv:
        header = ["replication"]
        for j in range(1, len(report.frequencies) + 1):
            header += [f"s{j}_re", f"s{j}_im", f"i{j}"]
        per_rep = zip(report.raw_sums.tolist(), report.raw_periodograms.tolist())
        _write_csv(args.csv, header,
                   ([r] + [repr(x) for s, i in zip(sums, pers) for x in (s.real, s.imag, i)]
                    for r, (sums, pers) in enumerate(per_rep)))
    return report.to_json()


def _cmd_miller(args) -> str:
    from .stats import miller_check

    cfg = _config_from_doc(_load_json_file(args.config))
    if cfg.weights is None:
        raise ValueError("miller config needs 'weights'")
    report = miller_check(cfg.spec, cfg.scheme, cfg.weights, cfg.scheme.dims_sequence,
                          cfg.replications, cfg.seed)
    return report.to_json()


def _cmd_blocking_plan(args) -> dict:
    from .bernstein import MixingProfile, block_index_sets, plan
    from .domain import _json_int, _json_object, _json_real

    profile_doc = _load_json_file(args.profile)
    try:
        profile_doc = _json_object(profile_doc, "", ("values", "dependence_range"))
        values = {}
        for k, v in _json_object(profile_doc.get("values", {}), "values").items():
            if not (k.isascii() and k.isdigit()):
                raise ValueError(f"separation {json.dumps(k)} must be a decimal integer")
            values[int(k)] = _json_real(v, f"values.{k}")
        dep = profile_doc.get("dependence_range")
        dep = None if dep is None else _json_int(dep, "dependence_range")
    except (TypeError, ValueError) as exc:
        raise ValueError(f"malformed profile document: {exc}") from exc
    profile = MixingProfile(values=values, dependence_range=dep)
    pl = plan(args.v1, profile, args.q)
    blocks, leftover = block_index_sets(pl, (pl.v1,))
    return {
        "v1": pl.v1, "s": pl.s, "p": pl.p, "r": pl.r, "q": pl.q,
        "block_first_ranges": [[b.first_lo, b.first_hi] for b in blocks],
        "block_cardinality_per_unit_cross_section": blocks[0].width,
        "leftover_first_ranges": [[z.first_lo, z.first_hi] for z in leftover],
        "leftover_width": pl.leftover_width,
    }


def _cmd_negligibility(args) -> dict:
    from dataclasses import asdict

    from .stats import negligibility_report

    cfg = _config_from_doc(_load_json_file(args.config))
    if cfg.q is None or cfg.weights is None:
        raise ValueError("negligibility config needs 'q' and 'weights'")
    report = negligibility_report(cfg.spec, cfg.scheme, cfg.scheme.dims_sequence, cfg.q,
                                  cfg.weights, cfg.replications, cfg.seed)
    if args.csv:
        _write_csv(args.csv, ["n", "v1", "leftover_mean", "leftover_se", "tail_mean",
                              "tail_se"],
                   ([row.index, row.v1, repr(row.leftover_mean), repr(row.leftover_se),
                     repr(row.tail_mean), repr(row.tail_se)] for row in report.rows))
    return asdict(report)


def _cmd_mixing_estimate(args) -> dict:
    from .mixing import rho_prime_profile
    from .model import _spec_from_doc

    spec = _spec_from_doc(_load_json_file(args.spec))
    profile = rho_prime_profile(spec, args.window, args.set_size, args.n_max)
    return {
        "values": {str(n): v for n, v in profile.values.items()},
        "dependence_range": profile.dependence_range,
    }


def _build_parser() -> _Parser:
    parser = _Parser(prog="specfield",
                     description="spectral analysis of stationary lattice random fields")
    parser.add_argument("--version", action="version", version=f"specfield {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="subcommand", required=True)
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out")

    p = sub.add_parser("kernels", parents=[out], help="evaluate the Fejer and Dirichlet kernels")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_kernels)

    p = sub.add_parser("periodogram", parents=[out],
                       help="one modulated sum and periodogram value")
    p.add_argument("--spec", required=True, help="field spec JSON file")
    p.add_argument("--dims", required=True, help="comma-separated box sides")
    p.add_argument("--freq", required=True, help="comma-separated frequency")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--shift", help="comma-separated box shift")
    p.set_defaults(func=_cmd_periodogram)

    p = sub.add_parser("expectation", parents=[out],
                       help="expected periodogram, exact and quadrature")
    p.add_argument("--spec", required=True)
    p.add_argument("--dims")
    p.add_argument("--freq")
    p.add_argument("--quadrature", type=int, help="quadrature grid points per axis")
    p.add_argument("--report-csv", help="write a sup-error convergence report CSV")
    p.add_argument("--dims-sequence", help="semicolon-separated dims, e.g. 8;16;32")
    p.add_argument("--grid", type=int, default=128, help="frequency grid size")
    p.set_defaults(func=_cmd_expectation)

    p = sub.add_parser("covariance", parents=[out],
                       help="exact covariance and no-conjugate product of two sums")
    p.add_argument("--spec", required=True)
    p.add_argument("--dims", required=True)
    p.add_argument("--freq", required=True)
    p.add_argument("--freq2", required=True)
    p.set_defaults(func=_cmd_covariance)

    p = sub.add_parser("clt-experiment", parents=[out], help="replicated limit-law diagnostics")
    p.add_argument("--config", required=True)
    p.add_argument("--csv", help="per-replication raw data CSV")
    p.set_defaults(func=_cmd_clt)

    p = sub.add_parser("miller", parents=[out], help="weighted-functional convergence table")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_miller)

    p = sub.add_parser("blocking-plan", parents=[out], help="Bernstein blocking integers")
    p.add_argument("--v1", type=int, required=True)
    p.add_argument("--profile", required=True, help="mixing profile JSON file")
    p.add_argument("--q", type=float, required=True)
    p.set_defaults(func=_cmd_blocking_plan)

    p = sub.add_parser("negligibility", parents=[out], help="leftover/tail second-moment table")
    p.add_argument("--config", required=True)
    p.add_argument("--csv")
    p.set_defaults(func=_cmd_negligibility)

    p = sub.add_parser("mixing-estimate", parents=[out], help="rho' lower-bound profile")
    p.add_argument("--spec", required=True)
    p.add_argument("--window", type=int, required=True)
    p.add_argument("--set-size", dest="set_size", type=int, required=True)
    p.add_argument("--n-max", dest="n_max", type=int, required=True)
    p.set_defaults(func=_cmd_mixing_estimate)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        doc = args.func(args)
        if doc is not None:
            _emit(doc, args.out)
        return 0
    except InternalConsistencyError as exc:
        sys.stderr.write(f"internal consistency error: {exc}\n")
        return INTERNAL_EXIT
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return VALIDATION_EXIT
    except Exception as exc:
        # anything else is a defect: one line, never a traceback
        message = " ".join(str(exc).split())
        sys.stderr.write(f"internal error: {type(exc).__name__}: {message}\n")
        return INTERNAL_EXIT


if __name__ == "__main__":
    sys.exit(main())
