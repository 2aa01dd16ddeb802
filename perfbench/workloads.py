"""The benchmark's four workloads, their correctness gates and the layer split.

Every workload is a closed loop with one caller: a pass makes its calls one
after another and the next pass starts when the previous one returns.
Inputs come from the benchmark seed only; the library sees the generated
inputs (specs, boxes, master seeds), never the benchmark seed itself.

Workloads, and why each is here:

* ``mc_clt2d`` -- ``stats.run_clt_experiment`` on a d=2 circular MA(1):
  the Monte Carlo path with many small replications, where lattice
  hashing and Box-Muller dominate.  Single thread: the plain baseline.
* ``mc_neglig1d`` -- ``blocking.negligibility_report`` on long 1-d real
  boxes at 2 threads: the same rng/fieldgen layers with few, large
  replications per chunk, truncation and weighted sums instead of dot
  products.
* ``theory`` -- the exact-moment and mixing paths, which use no RNG:
  ``spectral.uniform_convergence_report``, a covariance/product sweep and
  ``mixing.rho_prime_profile``.
* ``cli_cold`` -- fresh ``python -m specfield`` processes, where import
  time and the CLI's parse/validate/emit steps dominate.

Gate tolerances come from the replication count or from exact theory,
never from observed numbers.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
import warnings

import numpy as np

import specfield
from specfield import blocking, mixing, spectral, stats
from specfield.blocking import MixingProfile
from specfield.domain import BoxDims
from specfield.fieldgen import (CIRCULAR_GAUSSIAN, REAL_GAUSSIAN, first_axis_ma1,
                                spec_to_json, white_noise)
from specfield.frequencies import FrequencyScheme

# standard errors allowed between a Monte Carlo estimate and exact theory;
# per-check false-alarm probability below 1e-6 for Gaussian estimates
Z_GATE = 5.0
# exact routes agree to roundoff; recorded references likewise
REL_EXACT = 1e-9


def derive_seed(bench_seed: int, label: str) -> int:
    """A 63-bit master seed from the benchmark seed and a label."""
    digest = hashlib.sha256(f"{label}:{bench_seed}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def _close(a: float, b: float, rel: float = REL_EXACT) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b)) + 1e-300


class Checks:
    """Counts operations and correctness checks; failures feed fail_frac."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, name: str, ok: bool, detail: str = ""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{name}: {detail}" if detail else name)


class Workload:
    """One workload: inputs built in ``__init__`` (the timed set-up), then
    ``run_pass`` repeatedly, ``check`` on each output."""

    name = ""

    def __init__(self, seed: int, smoke: bool, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def prepare_gates(self, checks: Checks):
        """Untimed: exact reference values the gates compare against."""

    def warm_up(self, tracer):
        """Untimed pass before measuring: imports, caches, first-call costs."""
        return self.run_pass(tracer)

    def run_pass(self, tracer):
        raise NotImplementedError

    def check(self, out, checks: Checks):
        raise NotImplementedError

    def work_units(self) -> float:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def params(self) -> dict:
        return {}

    def ridged(self, out) -> int:
        """RuntimeWarnings for ridge-regularised pairs in one pass's output."""
        return 0

    def grid_points(self) -> int:
        """Frequency-grid points one pass evaluates in the exact sweep."""
        return 0

    def cli_layers(self) -> dict:
        """CLI timings only the cli_cold workload measures."""
        return {"cli.main.s": 0.0, "cli.cmd_p50_s": 0.0}

    def record(self) -> dict:
        """Extra measurements for the record line."""
        return {}


# ---------------------------------------------------------------------------
# mc_clt2d

class McClt2d(Workload):
    name = "mc_clt2d"

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, smoke, workdir)
        self.dims = (16, 16) if smoke else (64, 64)
        self.replications = 200 if smoke else 4000
        self.m = 2
        self.spec = first_axis_ma1(2, CIRCULAR_GAUSSIAN, 1.0, 0.5)
        self.scheme = FrequencyScheme.separated((math.pi / 2, 0.5), self.m, 0.2, 0,
                                                [BoxDims(self.dims)])
        self.master = derive_seed(seed, self.name)
        self._first_digest = None

    def params(self):
        return {"dims": list(self.dims), "R": self.replications, "m": self.m,
                "base": [math.pi / 2, 0.5], "delta": 0.2, "coeff": 0.5,
                "kind": CIRCULAR_GAUSSIAN, "master_seed": self.master}

    def prepare_gates(self, checks):
        freqs = self.scheme.freqs_for(self.dims)
        m = len(freqs)
        cov = np.empty((2 * m, 2 * m))
        for j, lam in enumerate(freqs):
            for k, mu in enumerate(freqs):
                c = spectral.covariance_of_sums(self.spec, lam, mu, self.dims)
                p = spectral.product_of_sums(self.spec, lam, mu, self.dims)
                cov[2 * j, 2 * k] = (c + p).real / 2.0
                cov[2 * j + 1, 2 * k + 1] = (c - p).real / 2.0
                cov[2 * j, 2 * k + 1] = (p.imag - c.imag) / 2.0
                cov[2 * j + 1, 2 * k] = (c.imag + p.imag) / 2.0
        self.exact_cov = cov
        self.exact_mean_i = [spectral.expected_periodogram_exact(self.spec, lam, self.dims)
                             for lam in freqs]
        self.exact_pseudo = [abs(spectral.product_of_sums(self.spec, lam, lam, self.dims))
                             for lam in freqs]

    def run_pass(self, tracer):
        with tracer.span("stats.run_clt_experiment"):
            return stats.run_clt_experiment(self.spec, self.scheme, self.dims,
                                            self.replications, self.master)

    def check(self, rep, checks):
        r = self.replications
        digest = hashlib.sha256(rep.to_json().encode()
                                + np.ascontiguousarray(rep.raw_sums).tobytes()).hexdigest()
        if self._first_digest is None:
            self._first_digest = digest
        else:
            checks.check("clt report byte-identical across passes",
                         digest == self._first_digest)
        # Wishart: Var(sample cov_ij) = (S_ii S_jj + S_ij^2) / (R - 1)
        s = self.exact_cov
        se = np.sqrt((np.outer(np.diag(s), np.diag(s)) + s * s) / (r - 1))
        dev = np.abs(rep.covariance - s)
        checks.check("covariance within Z_GATE SE of exact", bool(np.all(dev <= Z_GATE * se)),
                     f"worst {float(np.max(dev / se)):.2f} SE")
        exact_err = float(np.max(np.abs(s - rep.target_diagonal * np.eye(len(s)))))
        checks.check("max_cov_error vs diag(f/2) matches exact theory",
                     abs(rep.max_cov_error - exact_err) <= Z_GATE * float(np.max(se)),
                     f"{rep.max_cov_error} vs {exact_err}")
        means = np.asarray(rep.raw_periodograms).mean(axis=0)
        for j, (mean_i, pseudo) in enumerate(zip(self.exact_mean_i, self.exact_pseudo)):
            # |S|^2/V of a complex Gaussian: Var = (E I)^2 + |E S^2/V|^2
            sd = math.sqrt(mean_i ** 2 + pseudo ** 2)
            checks.check(f"mean periodogram {j} vs expected_periodogram_exact",
                         abs(means[j] - mean_i) <= Z_GATE * sd / math.sqrt(r),
                         f"{means[j]} vs {mean_i}")

    def work_units(self):
        return float(self.replications * math.prod(self.dims))


# ---------------------------------------------------------------------------
# mc_neglig1d

class McNeglig1d(Workload):
    name = "mc_neglig1d"

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, smoke, workdir)
        sides = (512, 1024, 4096) if smoke else (4096, 16384, 65536)
        self.dims_sequence = [BoxDims((v,)) for v in sides]
        self.replications = 20 if smoke else 200
        self.q = 0.2
        self.weights = [1.0, 0.0, 1.0, 0.0]
        self.spec = first_axis_ma1(1, REAL_GAUSSIAN, 1.0, 1.0)
        self.scheme = FrequencyScheme.separated((math.pi / 2,), 2, 0.2, 0,
                                                self.dims_sequence)
        self.master = derive_seed(seed, self.name)
        self._first_rows = None

    def params(self):
        return {"dims_sequence": [list(d.v) for d in self.dims_sequence],
                "R": self.replications, "q": self.q, "weights": self.weights,
                "m": 2, "base": [math.pi / 2], "delta": 0.2, "coeff": 1.0,
                "kind": REAL_GAUSSIAN, "master_seed": self.master}

    def run_pass(self, tracer):
        with tracer.span("blocking.negligibility_report"):
            return blocking.negligibility_report(self.spec, self.scheme,
                                                 self.dims_sequence, self.q,
                                                 self.weights, self.replications,
                                                 self.master)

    def check(self, rep, checks):
        for row in rep.rows:
            vals = (row.leftover_mean, row.leftover_se, row.tail_mean, row.tail_se)
            checks.check(f"negligibility row {row.index} finite and nonnegative",
                         all(math.isfinite(x) and x >= 0.0 for x in vals), repr(vals))
        if self._first_rows is None:
            self._first_rows = rep.rows
        else:
            checks.check("negligibility rows identical across passes",
                         rep.rows == self._first_rows)

    def work_units(self):
        return float(self.replications * sum(d.volume for d in self.dims_sequence))


# ---------------------------------------------------------------------------
# theory

# Values recorded at the commit that introduced this benchmark; the gate
# compares to REL_EXACT.  "candidates" is the number of pairs
# rho_prime_profile has to cover (disjoint, axis gap in 1..dependence range),
# a property of the window, not of how many pairs the library scores.
THEORY_REFERENCE = {
    "full": {
        "sup_errors": [0.125, 0.0625, 0.03125, 0.015625],
        "profile": {1: 0.8090169943749473, 2: 0.0, 3: 0.0},
        "sweep_abs_cov": 20.50332358193266,
        "sweep_abs_prod": 3.923141121612965,
        "candidates": 25585,
    },
    "smoke": {
        "sup_errors": [0.125, 0.0625],
        "profile": {1: 0.7071067811865475, 2: 0.0},
        "sweep_abs_cov": 1.4142135623731,
        "sweep_abs_prod": 0.7071067811865506,
        "candidates": 389,
    },
}


class Theory(Workload):
    name = "theory"

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, smoke, workdir)
        self.circ = first_axis_ma1(2, CIRCULAR_GAUSSIAN, 1.0, 0.5)
        self.real = first_axis_ma1(2, REAL_GAUSSIAN, 1.0, 1.0)
        sides = (8, 16) if smoke else (8, 16, 32, 64)
        self.dims_sequence = [(v, v) for v in sides]
        self.grid = 16 if smoke else 128
        self.sweep_grid = 4 if smoke else 16
        self.sweep_dims = (32, 32)
        self.window = 1 if smoke else 2
        self.set_size = 2
        self.n_max = 2 if smoke else 3
        axis = -np.pi + 2.0 * np.pi * np.arange(1, self.sweep_grid + 1) / self.sweep_grid
        # each grid point paired with its 8 grid neighbours (wrapping)
        self.sweep_pairs = []
        n = self.sweep_grid
        for i in range(n):
            for j in range(n):
                for di in (-1, 0, 1):
                    for dj in (-1, 0, 1):
                        if di or dj:
                            self.sweep_pairs.append(
                                ((float(axis[i]), float(axis[j])),
                                 (float(axis[(i + di) % n]), float(axis[(j + dj) % n]))))
        self.ref = THEORY_REFERENCE["smoke" if smoke else "full"]
        self.sample_seed = derive_seed(seed, self.name)

    def params(self):
        return {"dims_sequence": [list(d) for d in self.dims_sequence],
                "lambda_grid": self.grid, "sweep_grid": self.sweep_grid,
                "sweep_dims": list(self.sweep_dims), "sweep_pairs": len(self.sweep_pairs),
                "window": self.window, "set_size": self.set_size, "n_max": self.n_max,
                "candidate_pairs": self.ref["candidates"],
                "gate_sample_seed": self.sample_seed}

    def warm_up(self, tracer):
        # a toy-size pass crosses the same code; a full one would cost ~10 s
        return Theory(self.seed, True, self.workdir).run_pass(tracer)

    def prepare_gates(self, checks):
        # quadrature, the independent oracle, vs the exact route at grid points
        # drawn from the seed
        rng = np.random.default_rng(self.sample_seed)
        axis = -np.pi + 2.0 * np.pi * np.arange(1, self.grid + 1) / self.grid
        for dims in self.dims_sequence:
            for _ in range(3):
                lam = tuple(float(axis[i]) for i in rng.integers(0, self.grid, size=2))
                exact = spectral.expected_periodogram_exact(self.circ, lam, dims)
                quad = spectral.expected_periodogram_quadrature(self.circ, lam, dims)
                checks.check(f"quadrature vs exact at {lam} {dims}",
                             abs(exact - quad) <= REL_EXACT * max(1.0, abs(exact)),
                             f"{quad} vs {exact}")

    def run_pass(self, tracer):
        with tracer.span("spectral.uniform_convergence_report"):
            report = spectral.uniform_convergence_report(self.circ, self.dims_sequence,
                                                         self.grid)
        abs_cov = abs_prod = 0.0
        with tracer.span("spectral.covariance_sweep"):
            for lam, mu in self.sweep_pairs:
                abs_cov += abs(spectral.covariance_of_sums(self.real, lam, mu,
                                                           self.sweep_dims))
                abs_prod += abs(spectral.product_of_sums(self.real, lam, mu,
                                                         self.sweep_dims))
        with tracer.span("mixing.rho_prime_profile"):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", RuntimeWarning)
                profile = mixing.rho_prime_profile(self.real, self.window,
                                                   self.set_size, self.n_max)
        ridged = sum(1 for w in caught if issubclass(w.category, RuntimeWarning)
                     and "ridge" in str(w.message))
        return report, (abs_cov, abs_prod), profile, ridged

    def ridged(self, out) -> int:
        return out[3]

    def check(self, out, checks):
        report, sweep, profile, _ = out
        errs = report.sup_errors()
        checks.check("sup errors match reference",
                     len(errs) == len(self.ref["sup_errors"])
                     and all(_close(a, b) for a, b in zip(errs, self.ref["sup_errors"])),
                     repr(errs))
        vals = profile.values
        keys = sorted(vals)
        dep = self.real.dependence_range
        checks.check("rho' profile in [0, 1], nonincreasing, zero past range",
                     all(0.0 <= vals[k] <= 1.0 for k in keys)
                     and all(vals[b] <= vals[a] for a, b in zip(keys, keys[1:]))
                     and all(vals[k] == 0.0 for k in keys if k > dep), repr(vals))
        ref_prof = self.ref["profile"]
        checks.check("rho' profile matches reference",
                     keys == sorted(ref_prof)
                     and all(_close(vals[k], ref_prof[k]) for k in keys), repr(vals))
        for label, value in zip(("sweep_abs_cov", "sweep_abs_prod"), sweep):
            checks.check(f"{label} matches reference", _close(value, self.ref[label]),
                         f"{value!r} vs {self.ref[label]!r}")

    def grid_points(self) -> int:
        return len(self.dims_sequence) * self.grid ** 2

    def work_units(self):
        return float(self.grid_points() + len(self.sweep_pairs) + self.ref["candidates"])


# ---------------------------------------------------------------------------
# cli_cold

class CliCold(Workload):
    name = "cli_cold"

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, smoke, workdir)
        os.makedirs(workdir, exist_ok=True)
        self.ma1 = first_axis_ma1(1, REAL_GAUSSIAN, 1.0, 1.0)
        self.white = white_noise(1, CIRCULAR_GAUSSIAN, 1.0)
        self.spec_path = os.path.join(workdir, "ma1.json")
        with open(self.spec_path, "w", encoding="utf-8") as fh:
            fh.write(spec_to_json(self.ma1))
        self.profile_path = os.path.join(workdir, "profile.json")
        with open(self.profile_path, "w", encoding="utf-8") as fh:
            json.dump({"values": {}, "dependence_range": self.ma1.dependence_range}, fh)
        self.periodogram_seed = derive_seed(seed, "cli_periodogram")
        self.clt_seed = derive_seed(seed, "cli_clt")
        self.periodogram_side = 512 if smoke else 4096
        self.clt_r = 20 if smoke else 50
        self.config_path = os.path.join(workdir, "clt.json")
        config = {
            "spec": json.loads(spec_to_json(self.white)),
            "dims": [64],
            "scheme": {"base": [math.pi / 2], "m": 2, "delta": 0.25},
            "R": self.clt_r,
            "seed": self.clt_seed,
        }
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        self.commands = [
            ["--version"],
            ["kernels", "--alpha", "0.7", "--n", "16"],
            ["periodogram", "--spec", self.spec_path, "--dims", str(self.periodogram_side),
             "--freq", "1.0", "--seed", str(self.periodogram_seed)],
            ["expectation", "--spec", self.spec_path, "--dims", "64", "--freq", "1.0",
             "--quadrature", "256"],
            ["covariance", "--spec", self.spec_path, "--dims", "64", "--freq", "1.0",
             "--freq2", "1.5"],
            ["blocking-plan", "--v1", "4096", "--profile", self.profile_path,
             "--q", "0.2"],
            ["clt-experiment", "--config", self.config_path],
        ]
        self._rss_kb = 0
        self.command_times: list[float] = []
        self.per_command: dict[str, list[float]] = {argv[0]: [] for argv in self.commands}

    def params(self):
        return {"commands": [c[0] for c in self.commands],
                "periodogram_dims": [self.periodogram_side], "clt_R": self.clt_r,
                "periodogram_seed": self.periodogram_seed, "clt_seed": self.clt_seed}

    def prepare_gates(self, checks):
        from specfield.fieldgen import generate
        from specfield.kernels import dirichlet_mod, fejer
        from specfield.periodogram import modulated_sum, periodogram

        sample = generate(self.ma1, (self.periodogram_side,), None, self.periodogram_seed)
        s = modulated_sum(sample, (1.0,))
        dirichlet = dirichlet_mod(0.7, 16)
        cov = spectral.covariance_of_sums(self.ma1, (1.0,), (1.5,), (64,))
        prod = spectral.product_of_sums(self.ma1, (1.0,), (1.5,), (64,))
        pl = blocking.plan(4096, MixingProfile(values={},
                                               dependence_range=self.ma1.dependence_range),
                           0.2)
        scheme = FrequencyScheme.separated((math.pi / 2,), 2, 0.25, 0, [BoxDims((64,))])
        clt = stats.run_clt_experiment(self.white, scheme, (64,), self.clt_r, self.clt_seed)
        # per command: fields of the emitted JSON and the library's values
        self.expected = [
            ("text", f"specfield {specfield.__version__}"),
            ("fields", {("fejer",): fejer(0.7, 16), ("dirichlet", "re"): dirichlet.real,
                        ("dirichlet", "im"): dirichlet.imag}),
            ("fields", {("S", "re"): s.real, ("S", "im"): s.imag,
                        ("I",): periodogram(sample, (1.0,))}),
            ("fields", {("exact",): spectral.expected_periodogram_exact(self.ma1, (1.0,), (64,)),
                        ("quadrature",): spectral.expected_periodogram_quadrature(
                            self.ma1, (1.0,), (64,), 256)}),
            ("fields", {("covariance", "re"): cov.real, ("covariance", "im"): cov.imag,
                        ("product", "re"): prod.real, ("product", "im"): prod.imag}),
            ("fields", {("s",): pl.s, ("p",): pl.p, ("r",): pl.r}),
            ("doc", json.loads(clt.to_json())),
        ]

    def _run_command(self, argv):
        """Run one CLI process; returns (exit code, stdout, peak RSS kB)."""
        with open(os.path.join(self.workdir, "stderr.txt"), "wb") as err:
            proc = subprocess.Popen([sys.executable, "-m", "specfield", *argv],
                                    stdout=subprocess.PIPE, stderr=err)
            watchdog = threading.Timer(120.0, proc.kill)
            watchdog.start()
            try:
                out = proc.stdout.read()
                proc.stdout.close()
                # wait4 gives this child's own resource usage
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, out.decode("utf-8", "replace"), usage.ru_maxrss

    def run_pass(self, tracer):
        results = []
        for argv in self.commands:
            with tracer.span("cli.command"):
                t0 = time.perf_counter()
                code, out, rss = self._run_command(argv)
                seconds = time.perf_counter() - t0
            results.append((code, out, seconds))
            self.command_times.append(seconds)
            self.per_command[argv[0]].append(seconds)
            self._rss_kb = max(self._rss_kb, rss)
        return results

    def check(self, results, checks):
        for argv, (code, out, _), (kind, want) in zip(self.commands, results, self.expected):
            checks.check(f"{argv[0]} exits 0", code == 0, f"exit {code}")
            if kind == "text":
                ok = out.strip() == want
            else:
                try:
                    doc = json.loads(out)
                except json.JSONDecodeError:
                    doc = None
                if kind == "doc":
                    ok = doc == want
                else:
                    ok = doc is not None and all(_dig(doc, path) == value
                                                 for path, value in want.items())
            checks.check(f"{argv[0]} output equals the library result", ok, out[:200])

    def work_units(self):
        return float(len(self.commands))

    def record(self):
        return {"command_s": self.per_command}

    def peak_rss_mb(self):
        return self._rss_kb / 1024.0

    def cli_layers(self):
        return {"cli.main.s": self._cli_main_seconds(repeats=3),
                "cli.cmd_p50_s": statistics.median(self.command_times)}

    def _cli_main_seconds(self, repeats: int) -> float:
        """Median in-process ``cli.main(argv)`` time per command, after import."""
        from specfield import cli

        times = []
        for _ in range(repeats):
            for argv in self.commands:
                sink = io.StringIO()
                t0 = time.perf_counter()
                with contextlib.redirect_stdout(sink):
                    try:
                        cli.main(list(argv))
                    except SystemExit:
                        pass
                times.append(time.perf_counter() - t0)
        return statistics.median(times)


def _dig(doc, path):
    for key in path:
        if not isinstance(doc, dict) or key not in doc:
            return None
        doc = doc[key]
    return doc


WORKLOADS = {cls.name: cls for cls in (McClt2d, McNeglig1d, Theory, CliCold)}


# ---------------------------------------------------------------------------
# traced run: boundaries and the per-layer split

def _sites(args, kwargs, result, note):
    note["sites"] = int(getattr(result, "size", 0))


def _threads(args, kwargs, result, note):
    note["threads"] = int(result)


def _pair(args, kwargs, result, note):
    note["pair"] = args[1] if len(args) > 1 else kwargs.get("pair")


# (module, attribute, span name, observer): the names through which one
# layer calls another.  Patching a boundary a workload never crosses costs
# nothing; one that no longer exists is reported as absent.
BOUNDARIES = [
    ("specfield.fieldgen", "gaussian_lattice", "rng.gaussian_lattice", _sites),
    ("specfield.stats", "generate_batch", "fieldgen.generate_batch", _sites),
    ("specfield.blocking", "generate_batch", "fieldgen.generate_batch", _sites),
    ("specfield.stats", "replication_seeds", "fieldgen.replication_seeds", None),
    ("specfield.blocking", "replication_seeds", "fieldgen.replication_seeds", None),
    ("specfield.stats", "spectral_density", "fieldgen.spectral_density", None),
    ("specfield.spectral", "spectral_density", "fieldgen.spectral_density", None),
    ("specfield.spectral", "autocovariance_table", "fieldgen.autocovariance_table", None),
    ("specfield.stats", "phase_grid", "periodogram.phase_grid", None),
    ("specfield.blocking", "phase_grid", "periodogram.phase_grid", None),
    ("specfield.stats", "ks_statistic", "stats.ks_statistic", None),
    ("specfield._util", "worker_count", "util.worker_count", _threads),
    ("specfield.blocking", "plan", "blocking.plan", None),
    ("specfield.spectral", "expected_periodogram_exact",
     "spectral.expected_periodogram_exact", None),
    ("specfield.spectral", "dirichlet_mod", "kernels.dirichlet_mod", None),
    ("specfield.mixing", "canonical_rho", "mixing.canonical_rho", _pair),
]
# replication runners: (module, attribute, span name, per-task span name)
RUNNERS = [
    ("specfield.stats", "run_chunked", "util.run_chunked", "stats.chunk_task"),
    ("specfield.blocking", "run_chunked", "util.run_chunked", "blocking.chunk_task"),
]


LAYER_UNITS = {
    "rng.gaussian_lattice.s": "s",
    "rng.gaussian_lattice.calls": "count",
    "rng.sites": "count",
    "rng.ns_per_site": "ns",
    "fieldgen.generate_batch.self_s": "s",
    "fieldgen.filter_ns_per_site": "ns",
    "fieldgen.replication_seeds.s": "s",
    "fieldgen.spectral_density.calls": "count",
    "periodogram.phase_grid.calls": "count",
    "periodogram.phase_grid.s": "s",
    "stats.self_s": "s",
    "stats.ks_statistic.s": "s",
    "util.chunks": "count",
    "util.threads": "count",
    "util.busy_frac": "ratio",
    "blocking.negligibility_report.self_s": "s",
    "blocking.plan.s": "s",
    "spectral.expected_periodogram_exact.calls": "count",
    "spectral.us_per_grid_pt": "us",
    "spectral.autocov_table_builds": "count",
    "spectral.covariance_sweep.s": "s",
    "kernels.dirichlet_mod.calls": "count",
    "kernels.dirichlet_mod.s": "s",
    "mixing.canonical_rho.calls": "count",
    "mixing.canonical_rho.s": "s",
    "mixing.us_per_pair": "us",
    "mixing.enumerate_self_s": "s",
    "mixing.translate_dup_frac": "ratio",
    "mixing.ridged": "count",
    "cli.interp_s": "s",
    "cli.numpy_import_s": "s",
    "cli.import_s": "s",
    "cli.modules_loaded": "count",
    "cli.main.s": "s",
    "cli.cmd_p50_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead_frac": "ratio",
    "trace.absent": "count",
}


def install(tracer):
    for module, attr, name, observe in BOUNDARIES:
        tracer.wrap(module, attr, name, observe)
    for module, attr, name, task in RUNNERS:
        tracer.wrap_runner(module, attr, name, task)


def _translate_key(pair):
    """A pair of index sets up to translation of both sets together."""
    points = list(pair.left) + list(pair.right)
    origin = min(points)

    def shifted(block):
        return tuple(sorted(tuple(a - b for a, b in zip(p, origin)) for p in block))

    return shifted(pair.left), shifted(pair.right)


def layer_metrics(tracer, lo: float, hi: float, wl: Workload, out) -> dict:
    """Per-layer numbers of one traced pass spanning [lo, hi]."""
    wall = hi - lo
    own = tracer.self_times()

    def self_sum(*names):
        return sum(own[sp.sid] for name in names for sp in tracer.named(name))

    def per(total, count, scale):
        return total * scale / count if count else 0.0

    rng_s = tracer.total("rng.gaussian_lattice")
    rng_sites = sum(sp.note.get("sites", 0) for sp in tracer.named("rng.gaussian_lattice"))
    batches = tracer.named("fieldgen.generate_batch")
    batch_sites = sum(sp.note.get("sites", 0) for sp in batches)
    batch_self = self_sum("fieldgen.generate_batch")
    counts = [sp.note["threads"] for sp in tracer.named("util.worker_count")]
    threads = max(counts) if counts else int(os.environ.get("SPECFIELD_THREADS", "1"))
    rho = tracer.named("mixing.canonical_rho")
    rho_s = sum(sp.duration for sp in rho)
    seen, dups = set(), 0
    for sp in sorted(rho, key=lambda s: s.start):
        pair = sp.note.get("pair")
        if pair is None:
            continue
        key = _translate_key(pair)
        dups += key in seen
        seen.add(key)
    grid_points = wl.grid_points()
    return {
        "rng.gaussian_lattice.s": rng_s,
        "rng.gaussian_lattice.calls": tracer.count("rng.gaussian_lattice"),
        "rng.sites": rng_sites,
        "rng.ns_per_site": per(rng_s, rng_sites, 1e9),
        "fieldgen.generate_batch.self_s": batch_self,
        "fieldgen.filter_ns_per_site": per(batch_self, batch_sites, 1e9),
        "fieldgen.replication_seeds.s": tracer.total("fieldgen.replication_seeds"),
        "fieldgen.spectral_density.calls": tracer.count("fieldgen.spectral_density"),
        "periodogram.phase_grid.calls": tracer.count("periodogram.phase_grid"),
        "periodogram.phase_grid.s": tracer.total("periodogram.phase_grid"),
        "stats.self_s": self_sum("stats.run_clt_experiment", "stats.chunk_task"),
        "stats.ks_statistic.s": tracer.total("stats.ks_statistic"),
        "util.chunks": len(batches),
        "util.threads": threads,
        "util.busy_frac": sum(sp.duration for sp in batches) / (wall * threads),
        "blocking.negligibility_report.self_s": self_sum("blocking.negligibility_report",
                                                         "blocking.chunk_task"),
        "blocking.plan.s": tracer.total("blocking.plan"),
        "spectral.expected_periodogram_exact.calls":
            tracer.count("spectral.expected_periodogram_exact"),
        "spectral.us_per_grid_pt": per(tracer.total("spectral.uniform_convergence_report"),
                                       grid_points, 1e6),
        "spectral.autocov_table_builds": tracer.count("fieldgen.autocovariance_table"),
        "spectral.covariance_sweep.s": tracer.total("spectral.covariance_sweep"),
        "kernels.dirichlet_mod.calls": tracer.count("kernels.dirichlet_mod"),
        "kernels.dirichlet_mod.s": tracer.total("kernels.dirichlet_mod"),
        "mixing.canonical_rho.calls": len(rho),
        "mixing.canonical_rho.s": rho_s,
        "mixing.us_per_pair": per(rho_s, len(rho), 1e6),
        "mixing.enumerate_self_s": self_sum("mixing.rho_prime_profile"),
        "mixing.translate_dup_frac": dups / len(rho) if rho else 0.0,
        "mixing.ridged": wl.ridged(out),
        "trace.coverage": tracer.coverage(lo, hi),
    }
