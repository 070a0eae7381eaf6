"""Command-line front end.

Subcommands: density, fraclap, liyau-const, verify, markov-verify, harnack,
sweep. Every run writes its tables (CSV), a JSON report, and a hashed
manifest into the output directory (--outdir, else $LIYAU_OUTDIR, else cwd);
main writes the manifest once the subcommand has returned, so a run that
raised leaves none.

Exit codes: 0 pass, 1 usage error, 2 computation error, 3 verification
failure.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import runio
from .constant import SearchSpec, liyau_constant_beta1, liyau_constant_numeric
from .fields import Extension, GridField
from .fraclap import PAD_FACTOR, frac_laplacian_point, frac_laplacian_spectral
from .harnack import (default_alpha, gaussian_harnack_rhs,
                      gaussian_kernel_log_ratio, gaussian_sharp_source,
                      harnack_check_fractional, harnack_check_kn,
                      harnack_m_form_bound)
from .markov import (complete_graph, load_edge_list, neg_L_log, phi_kn,
                     transition_kn, transition_matrix)
from .runio import ConfigError, RunManifest, read_config_file, resolve_outdir
from .stable import ProfileGridSpec, build_profile
from .verify import (VerificationReport, log_uniform,
                     reduction_theorem_check_discrete, sweep_dh_consistency,
                     sweep_fractional_liyau, sweep_key_inequality,
                     sweep_reduction)

EXIT_PASS = 0
EXIT_USAGE = 1
EXIT_COMPUTE = 2
EXIT_VERIFY = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage problems; the contract here reserves 2 for
    # computation errors, so remap
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _beta(value: str) -> float:
    b = float(value)
    if not 0 < b < 2:
        raise argparse.ArgumentTypeError(f"beta must lie in (0, 2), got {b}")
    return b


def _dim(value: str) -> int:
    d = int(value)
    if d not in (1, 2, 3):
        raise argparse.ArgumentTypeError("dim must be 1, 2, or 3")
    return d


def _positive(value: str) -> float:
    v = float(value)
    if not v > 0:
        raise argparse.ArgumentTypeError("value must be positive")
    return v


def _int_at_least(lo: int, what: str):
    """argparse type for an integer flag of at least lo."""
    def parse(value: str) -> int:
        n = int(value)
        if n < lo:
            raise argparse.ArgumentTypeError(f"need {what}, got {n}")
        return n
    parse.__name__ = "int"  # argparse's message for a non-integer names it
    return parse


_positive_int = _int_at_least(1, "a positive integer")
_non_negative_int = _int_at_least(0, "a non-negative integer")
_graph_size = _int_at_least(2, "a complete graph of n >= 2")


def _common(sub):
    sub.add_argument("--outdir", default=None, help="output directory")
    sub.add_argument("--seed", type=_non_negative_int, default=0)
    sub.add_argument("--config", default=None,
                     help="key=value file; flags override file values")


def build_parser() -> _Parser:
    p = _Parser(prog="liyau", description=__doc__.splitlines()[0])
    subs = p.add_subparsers(dest="subcommand", required=True)

    d = subs.add_parser("density", parents=[], help="tabulate a stable profile")
    d.add_argument("--beta", type=_beta, required=True)
    d.add_argument("--dim", type=_dim, default=1)
    d.add_argument("--r-max", type=_positive, default=None)
    _common(d)
    d.set_defaults(func=cmd_density)

    f = subs.add_parser("fraclap", help="pointwise vs spectral operator check")
    f.add_argument("--beta", type=_beta, required=True)
    f.add_argument("--spacing", type=_positive, default=0.02)
    f.add_argument("--extent", type=_positive, default=20.0)
    f.add_argument("--pad-factor", type=_positive_int, default=PAD_FACTOR,
                   help="periodic-box widening for the spectral route")
    f.add_argument("--points", default="0,0.5,1,2",
                   help="comma-separated evaluation points")
    _common(f)
    f.set_defaults(func=cmd_fraclap)

    c = subs.add_parser("liyau-const", help="the sharp constant for (beta, d)")
    c.add_argument("--beta", type=_beta, default=None)
    c.add_argument("--dim", type=_dim, default=1)
    c.add_argument("--sweep", default=None,
                   help="beta:START:STOP:STEPS sweep specification")
    c.add_argument("--y-max", type=_positive, default=50.0)
    c.add_argument("--nodes", type=_positive_int, default=49)
    _common(c)
    c.set_defaults(func=cmd_liyau_const)

    v = subs.add_parser("verify", help="inequality verification sweeps")
    v.add_argument("--check", choices=["key", "reduction", "liyau", "dh"],
                   required=True)
    v.add_argument("--samples", type=_positive_int, default=None)
    v.add_argument("--beta", type=_beta, default=1.0)
    v.add_argument("--n-fields", type=_positive_int, default=3)
    _common(v)
    v.set_defaults(func=cmd_verify)

    m = subs.add_parser("markov-verify", help="complete-graph closed forms")
    m.add_argument("--graph", default="Kn",
                   help="'Kn' or a path to an edge-list file")
    m.add_argument("--n", type=_graph_size, default=3)
    m.add_argument("--t-min", type=_positive, default=1e-2)
    m.add_argument("--t-max", type=_positive, default=10.0)
    m.add_argument("--per-decade", type=_positive_int, default=60)
    _common(m)
    m.set_defaults(func=cmd_markov_verify)

    h = subs.add_parser("harnack", help="Harnack bounds and checks")
    h.add_argument("--setting", choices=["kn", "frac", "gauss"], required=True)
    h.add_argument("--n", type=_graph_size, default=3)
    h.add_argument("--beta", type=_beta, default=1.0)
    h.add_argument("--alpha", type=_positive, default=None)
    h.add_argument("--dim", type=_dim, default=1)
    h.add_argument("--t1", type=_positive, default=1.0)
    h.add_argument("--t2", type=_positive, default=2.0)
    h.add_argument("--x1", type=float, default=0.5)
    h.add_argument("--x2", type=float, default=0.0)
    _common(h)
    h.set_defaults(func=cmd_harnack)

    s = subs.add_parser("sweep", help="constant versus beta (exploratory)")
    s.add_argument("--beta-start", type=_beta, default=0.5)
    s.add_argument("--beta-stop", type=_beta, default=1.9)
    s.add_argument("--steps", type=_positive_int, default=8)
    s.add_argument("--dim", type=_dim, default=1)
    _common(s)
    s.set_defaults(func=cmd_sweep)
    return p


def _expand_config(argv: list) -> list:
    """Inject file params as flags before the explicit ones (file < flags)."""
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    if i + 1 >= len(argv):
        return argv  # argparse reports the missing value
    params = read_config_file(argv[i + 1])
    inject = []
    for k, v in params.items():
        inject += [f"--{k.replace('_', '-')}", v]
    return argv[:1] + inject + argv[1:]


def _config_echo(args) -> dict:
    skip = {"func", "config"}
    return {k: (str(v) if v is not None and not isinstance(v, (int, float, str, bool)) else v)
            for k, v in vars(args).items() if k not in skip}


def _emit_report(manifest: RunManifest, outdir, name: str,
                 report: VerificationReport) -> int:
    rows = [(i, m, e) for i, (m, e) in enumerate(report.samples)]
    manifest.register(runio.write_csv(outdir / f"{name}_margins.csv",
                                      ["sample", "margin", "error"], rows))
    manifest.register(runio.write_json_report(outdir / f"{name}_report.json",
                                              report.to_json_dict()))
    manifest.verdicts[name] = report.verdict
    print(f"{name}: {report.verdict} (min margin {report.min_margin:.3e}, "
          f"{len(report.samples)} samples)")
    return EXIT_PASS if report.verdict != "fail" else EXIT_VERIFY


# ---- subcommands ------------------------------------------------------------

def cmd_density(args, outdir, manifest) -> int:
    grid = ProfileGridSpec(r_max=args.r_max) if args.r_max else None
    prof = build_profile(args.beta, args.dim, grid)
    name = f"profile_b{args.beta:g}_d{args.dim}"
    path = outdir / f"{name}.txt"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(prof.to_text())
    manifest.register(path)
    payload = {"beta": args.beta, "d": args.dim, "mass": prof.mass(),
               "tail_coef": prof.tail_coef,
               "tail_fit_residual": prof.tail_fit_residual,
               "error_estimate": prof.error_estimate, "method": prof.method}
    manifest.register(runio.write_json_report(outdir / f"{name}.json", payload))
    print(f"{name}: mass {payload['mass']:.12f}, tail coef {prof.tail_coef:.6g}")
    return EXIT_PASS


def cmd_fraclap(args, outdir, manifest) -> int:
    f = GridField.from_function(lambda x: np.exp(-x ** 2), args.spacing,
                                args.extent, Extension("constant"))
    spec = frac_laplacian_spectral(f, args.beta, pad_factor=args.pad_factor)
    pts = [float(s) for s in args.points.split(",") if s.strip()]
    rows = []
    worst = 0.0
    # gaps are measured against the field's operator amplitude, not the
    # local value, which vanishes at sign changes
    amp = float(np.abs(spec.values).max())
    for x in pts:
        q = frac_laplacian_point(f, args.beta, x)
        s = float(spec.eval(x))
        rows.append((x, q.value, q.error, s))
        worst = max(worst, abs(q.value - s) / max(amp, 1e-30))
    manifest.register(runio.write_csv(
        outdir / "fraclap.csv", ["x", "quadrature", "error", "spectral"], rows))
    payload = {"beta": args.beta, "max_rel_gap": worst,
               "boundary_warning": spec.meta["boundary_warning"]}
    manifest.register(runio.write_json_report(outdir / "fraclap.json", payload))
    print(f"fraclap: max relative gap quadrature vs spectral {worst:.3e}")
    return EXIT_PASS


def _parse_sweep(spec: str):
    parts = spec.split(":")
    if parts and parts[0] == "beta":
        parts = parts[1:]
    if len(parts) != 3:
        raise ConfigError("--sweep expects beta:START:STOP:STEPS")
    start, stop, steps = float(parts[0]), float(parts[1]), int(parts[2])
    if not (0 < start < 2 and 0 < stop < 2 and steps >= 1):
        raise ConfigError("sweep betas must lie in (0, 2)")
    return np.linspace(start, stop, steps)


def _constant_sweep(manifest, path, betas, dim, search: SearchSpec) -> int:
    """The sharp constant at each beta, one CSV row per beta."""
    rows = []
    for b in betas:
        res = liyau_constant_numeric(build_profile(float(b), dim), search)
        rows.append((float(b), dim, res.value, res.error, res.y_star))
    manifest.register(runio.write_csv(
        path, ["beta", "d", "c_ly", "err", "y_star"], rows,
        comment="exploratory sweep; no claim about the beta->2 limit"))
    print(f"sweep: {len(rows)} rows written")
    return EXIT_PASS


def cmd_liyau_const(args, outdir, manifest) -> int:
    search = SearchSpec(y_max=args.y_max, nodes=args.nodes)
    if args.sweep:
        return _constant_sweep(manifest, outdir / "liyau_const_sweep.csv",
                               _parse_sweep(args.sweep), args.dim, search)
    if args.beta is None:
        raise ConfigError("either --beta or --sweep is required")
    res = liyau_constant_numeric(build_profile(args.beta, args.dim), search)
    manifest.register(runio.write_csv(
        outdir / "j_table.csv", ["y", "J", "err"], res.j_table))
    payload = {"beta": res.beta, "d": res.d, "c_ly": res.value,
               "error": res.error, "y_star": res.y_star,
               "method": res.method, "warning": res.warning}
    if args.beta == 1.0:
        payload["closed_form"] = liyau_constant_beta1(args.dim)
    manifest.register(runio.write_json_report(outdir / "liyau_const.json",
                                              payload))
    print(f"C({res.beta:g}, {res.d}) = {res.value:.10g} +- {res.error:.2g} "
          f"at |y*| = {res.y_star:.4g}")
    return EXIT_PASS


def cmd_verify(args, outdir, manifest) -> int:
    # without --samples each sweep keeps its own default count
    n = () if args.samples is None else (args.samples,)
    if args.check == "key":
        report = sweep_key_inequality(*n, seed=args.seed)
    elif args.check == "reduction":
        report = sweep_reduction(*n, seed=args.seed)
    elif args.check == "liyau":
        prof = build_profile(args.beta, 1)
        t_grid = np.geomspace(1.0, 5.0, 3)
        x_grid = np.linspace(-20.0, 20.0, 5)
        report = sweep_fractional_liyau(prof, args.n_fields, t_grid, x_grid,
                                        seed=args.seed)
    else:
        prof = build_profile(args.beta, 1)
        report = sweep_dh_consistency(prof, *n, seed=args.seed)
    return _emit_report(manifest, outdir, f"verify_{args.check}", report)


def cmd_markov_verify(args, outdir, manifest) -> int:
    rng = np.random.default_rng(args.seed)
    if args.graph != "Kn":
        chain = load_edge_list(Path(args.graph).read_text())
        u0 = log_uniform(rng, 1e-2, 1e2, size=chain.n)
        t = float(np.sqrt(args.t_min * args.t_max))
        report = reduction_theorem_check_discrete(chain, u0, t)
        return _emit_report(manifest, outdir, "markov_reduction", report)
    n = args.n
    chain = complete_graph(n)
    decades = np.log10(args.t_max / args.t_min)
    ts = np.geomspace(args.t_min, args.t_max,
                      int(np.ceil(args.per_decade * decades)) + 1)
    u0 = log_uniform(rng, 1e-2, 1e2, size=n)
    point_mass = np.zeros(n)  # P_t delta is strictly positive for t > 0
    point_mass[0] = 1.0
    report = VerificationReport(name="markov-kn",
                                params={"n": n, "t_points": len(ts)},
                                seed=args.seed)
    rows = []
    for t in ts:
        P = transition_matrix(chain, float(t))
        Pk = transition_kn(n, float(t))
        p_gap = float(np.max(np.abs(P - Pk)))
        # margins ride on the closed-form transition matrix: the spectral
        # route's absolute entry noise blows up through log of small entries
        margin = float(np.min(phi_kn(n, float(t)) - neg_L_log(chain, Pk @ u0)))
        sharp = abs(phi_kn(n, float(t))
                    - float(np.max(neg_L_log(chain, Pk @ point_mass))))
        rows.append((float(t), p_gap, margin, sharp))
        report.add_sample(1e-12 - p_gap, 0.0)
        report.add_sample(margin, 1e-10)
        report.add_sample(1e-10 - sharp, 0.0)
    manifest.register(runio.write_csv(
        outdir / "markov_kn.csv",
        ["t", "transition_gap", "min_margin", "sharpness_gap"], rows))
    return _emit_report(manifest, outdir, "markov_kn", report)


def cmd_harnack(args, outdir, manifest) -> int:
    rng = np.random.default_rng(args.seed)
    if not args.t1 < args.t2:
        raise ConfigError("need t1 < t2")
    if args.setting == "kn":
        u0 = log_uniform(rng, 1e-2, 1e2, size=args.n)
        report = harnack_check_kn(args.n, u0, args.t1, args.t2)
        return _emit_report(manifest, outdir, "harnack_kn", report)
    if args.setting == "gauss":
        rhs = gaussian_harnack_rhs(args.dim, args.t1, args.t2,
                                   args.x1, args.x2)
        x0 = gaussian_sharp_source(args.t1, args.t2, args.x1, args.x2)
        lhs = gaussian_kernel_log_ratio(args.dim, args.t1, args.t2,
                                        args.x1, args.x2, x0)
        payload = {"setting": "gauss", "log_bound": rhs,
                   "kernel_log_ratio_at_sharp_source": lhs,
                   "sharpness_gap": rhs - lhs}
        manifest.register(runio.write_json_report(outdir / "harnack_gauss.json",
                                                  payload))
        print(f"gaussian bound {rhs:.10g}, sharpness gap {rhs - lhs:.3e}")
        return EXIT_PASS
    from .verify import random_positive_field

    prof = build_profile(args.beta, 1)
    alpha = args.alpha if args.alpha is not None else default_alpha(args.beta, 1)
    u0 = random_positive_field(rng)
    report = harnack_check_fractional(u0, args.beta, args.t1, args.t2,
                                      args.x1, args.x2, alpha, prof)
    payload = {"setting": "frac", "alpha": alpha,
               "m_form_bound": harnack_m_form_bound(alpha, args.beta, 1,
                                                    args.t1, args.t2,
                                                    profile=prof),
               **report.params}
    manifest.register(runio.write_json_report(outdir / "harnack_frac.json",
                                              payload))
    return _emit_report(manifest, outdir, "harnack_frac", report)


def cmd_sweep(args, outdir, manifest) -> int:
    return _constant_sweep(manifest, outdir / "constant_sweep.csv",
                           np.linspace(args.beta_start, args.beta_stop,
                                       args.steps), args.dim, SearchSpec())


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        argv = _expand_config(argv)
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    except ConfigError as exc:
        print(f"liyau: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    outdir = resolve_outdir(args.outdir)
    manifest = RunManifest(config=_config_echo(args))
    try:
        code = args.func(args, outdir, manifest)
        manifest.write(outdir)
        return code
    except ConfigError as exc:
        print(f"liyau: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"liyau: computation failed: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
