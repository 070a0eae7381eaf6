"""Command-line front end.

Subcommands: density, fraclap, liyau-const, verify, markov-verify, harnack.
Every run writes its tables (CSV), a JSON report, and a hashed manifest
into the output directory (--outdir, else $LIYAU_OUTDIR, else cwd); main
writes the manifest once the subcommand has returned, so a run that raised
leaves none.

Exit codes: 0 pass, 1 usage error, 2 computation error, 3 verification
failure.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import runio
from .constant import (SearchSpec, constant_for, liyau_constant_beta1,
                       liyau_constant_numeric)
from .fields import Extension, GridField
from .fraclap import frac_laplacian_point, gaussian_frac_laplacian
from .harnack import (default_alpha, gaussian_harnack_rhs,
                      gaussian_kernel_log_ratio, gaussian_sharp_source,
                      harnack_check_fractional, harnack_check_kn,
                      harnack_m_form_bound)
from .markov import (complete_graph, load_edge_list, neg_L_log, phi_kn,
                     transition_kn, transition_matrix)
from .runio import ConfigError, RunManifest, read_config_file, resolve_outdir
from .stable import build_profile, normalizing_constant
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


def _finite(value: str) -> float:
    v = float(value)
    if not np.isfinite(v):
        raise argparse.ArgumentTypeError(f"value must be finite, got {v}")
    return v


def _positive(value: str) -> float:
    v = _finite(value)
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
    # appended, so that a second --config, in any spelling, shows
    sub.add_argument("--config", action="append", default=None,
                     help="key=value file; flags override file values")


def build_parser() -> _Parser:
    p = _Parser(prog="liyau", description=__doc__.splitlines()[0])
    subs = p.add_subparsers(dest="subcommand", required=True)

    d = subs.add_parser("density", parents=[], help="tabulate a stable profile")
    d.add_argument("--beta", type=_beta, required=True)
    d.add_argument("--dim", type=_dim, default=1)
    _common(d)
    d.set_defaults(func=cmd_density)

    f = subs.add_parser("fraclap", help="point quadrature vs closed form")
    f.add_argument("--beta", type=_beta, required=True)
    f.add_argument("--spacing", type=_positive, default=0.02)
    f.add_argument("--extent", type=_positive, default=20.0)
    f.add_argument("--points", default="0,0.5,1,2",
                   help="comma-separated evaluation points in the central "
                        "80%% of [-extent, extent]")
    _common(f)
    f.set_defaults(func=cmd_fraclap)

    c = subs.add_parser("liyau-const", help="the sharp constant for (beta, d)")
    one_or_sweep = c.add_mutually_exclusive_group(required=True)
    one_or_sweep.add_argument("--beta", type=_beta, default=None)
    one_or_sweep.add_argument("--sweep", default=None,
                              help="beta:START:STOP:STEPS sweep specification")
    c.add_argument("--dim", type=_dim, default=1)
    c.add_argument("--y-max", type=_positive, default=50.0)
    c.add_argument("--nodes", type=_positive_int, default=49)
    _common(c)
    c.set_defaults(func=cmd_liyau_const)

    v = subs.add_parser("verify", help="inequality verification sweeps")
    v.add_argument("--check", choices=["key", "reduction", "liyau", "dh"],
                   required=True)
    # None until cmd_verify resolves it for the check (_resolve_mode)
    v.add_argument("--samples", type=_positive_int, default=None)
    v.add_argument("--beta", type=_beta, default=None)
    v.add_argument("--n-fields", type=_positive_int, default=None)
    _common(v)
    v.set_defaults(func=cmd_verify)

    m = subs.add_parser("markov-verify", help="complete-graph closed forms")
    m.add_argument("--graph", default="Kn",
                   help="'Kn' or a path to an edge-list file")
    # None until cmd_markov_verify resolves it for the graph (_resolve_mode)
    m.add_argument("--n", type=_graph_size, default=None)
    m.add_argument("--t-min", type=_positive, default=1e-2)
    m.add_argument("--t-max", type=_positive, default=10.0)
    m.add_argument("--per-decade", type=_positive_int, default=None)
    _common(m)
    m.set_defaults(func=cmd_markov_verify)

    h = subs.add_parser("harnack", help="Harnack bounds and checks")
    h.add_argument("--setting", choices=["kn", "frac", "gauss"], required=True)
    # None until cmd_harnack resolves it for the setting (_resolve_mode)
    h.add_argument("--n", type=_graph_size, default=None)
    h.add_argument("--beta", type=_beta, default=None)
    h.add_argument("--alpha", type=_positive, default=None)
    h.add_argument("--dim", type=_dim, default=None)
    h.add_argument("--t1", type=_positive, default=1.0)
    h.add_argument("--t2", type=_positive, default=2.0)
    h.add_argument("--x1", type=_finite, default=None)
    h.add_argument("--x2", type=_finite, default=None)
    _common(h)
    h.set_defaults(func=cmd_harnack)
    return p


def _expand_config(argv: list) -> tuple[list, list | None]:
    """Inject the params of the file that --config FILE or --config=FILE
    names as flags before the explicit ones (file < flags).

    Returns the expanded argv and [FILE], or None without --config; a
    second file is left unread for main to reject.
    """
    paths = [b for a, b in zip(argv, argv[1:]) if a == "--config"]
    paths += [a[len("--config="):] for a in argv if a.startswith("--config=")]
    if not paths:
        return argv, None
    inject = []
    for k, v in read_config_file(paths[0]).items():
        inject += [f"--{k.replace('_', '-')}", v]
    return argv[:1] + inject + argv[1:], paths[:1]


def _resolve_mode(args, mode: str, ignored: tuple, **defaults) -> None:
    """Reject the flags in ignored that were given: mode does not read them.
    Then fill in the defaults of the flags it reads that were not given."""
    given = ["--" + k.replace("_", "-") for k in ignored
             if getattr(args, k) is not None]
    if given:
        raise ConfigError(f"{mode} ignores {', '.join(given)}")
    for k, v in defaults.items():
        if k not in ignored and getattr(args, k) is None:
            setattr(args, k, v)


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
    prof = build_profile(args.beta, args.dim)
    name = f"profile_b{args.beta:g}_d{args.dim}"
    path = outdir / f"{name}.txt"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(prof.to_text())
    manifest.register(path)
    payload = {"beta": args.beta, "d": args.dim, "mass": prof.mass(),
               "tail_coef": normalizing_constant(args.beta, args.dim),
               "error_estimate": prof.error_estimate, "method": prof.method}
    manifest.register(runio.write_json_report(outdir / f"{name}.json", payload))
    print(f"{name}: mass {payload['mass']:.12f}, "
          f"tail coef {payload['tail_coef']:.6g}")
    return EXIT_PASS


def cmd_fraclap(args, outdir, manifest) -> int:
    if round(args.extent / args.spacing) < 2:  # the grid's 2k + 1 >= 5 nodes
        raise ConfigError("--extent / --spacing must round to 2 or more")
    f = GridField.from_function(lambda x: np.exp(-x ** 2), args.spacing,
                                args.extent, Extension("constant"))
    try:
        pts = [float(s) for s in args.points.split(",") if s.strip()]
        if not pts:
            raise ValueError("no evaluation point given")
        f.require_central(pts)
    except ValueError as exc:
        raise ConfigError(f"--points: {exc}") from None
    rows = []
    worst = 0.0
    # gaps are measured against the operator's peak, at x = 0, not the
    # local value, which vanishes at sign changes
    amp = float(gaussian_frac_laplacian(args.beta, 0.0))
    for x in pts:
        q = frac_laplacian_point(f, args.beta, x)
        exact = float(gaussian_frac_laplacian(args.beta, x))
        rows.append((x, q.value, q.error, exact))
        worst = max(worst, abs(q.value - exact) / amp)
    manifest.register(runio.write_csv(
        outdir / "fraclap.csv", ["x", "quadrature", "error", "exact"], rows))
    payload = {"beta": args.beta, "max_rel_gap": worst}
    manifest.register(runio.write_json_report(outdir / "fraclap.json", payload))
    print(f"fraclap: max relative gap quadrature vs exact {worst:.3e}")
    return EXIT_PASS


def _parse_sweep(spec: str):
    parts = spec.split(":")
    if parts and parts[0] == "beta":
        parts = parts[1:]
    if len(parts) != 3:
        raise ConfigError("--sweep expects beta:START:STOP:STEPS")
    try:
        start, stop, steps = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ConfigError("--sweep needs numbers START, STOP and an integer "
                          "STEPS") from None
    if not (0 < start < 2 and 0 < stop < 2 and steps >= 1):
        raise ConfigError("sweep betas must lie in (0, 2)")
    return np.linspace(start, stop, steps)


def cmd_liyau_const(args, outdir, manifest) -> int:
    search = SearchSpec(y_max=args.y_max, nodes=args.nodes)
    if args.sweep:
        # the sharp constant at each beta, one CSV row per beta
        rows = []
        for b in _parse_sweep(args.sweep):
            res = liyau_constant_numeric(build_profile(float(b), args.dim),
                                         search)
            rows.append((float(b), args.dim, res.value, res.error, res.y_star))
        manifest.register(runio.write_csv(
            outdir / "liyau_const_sweep.csv",
            ["beta", "d", "c_ly", "err", "y_star"], rows,
            comment="exploratory sweep; no claim about the beta->2 limit"))
        print(f"sweep: {len(rows)} rows written")
        return EXIT_PASS
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
    # --check liyau counts its samples by --n-fields, the others by --samples
    ignored = {"key": ("beta", "n_fields"), "reduction": ("beta", "n_fields"),
               "liyau": ("samples",), "dh": ("n_fields",)}[args.check]
    _resolve_mode(args, f"--check {args.check}", ignored, beta=1.0, n_fields=3)
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
    if not args.t_min <= args.t_max:
        raise ConfigError("need t-min <= t-max")
    # an edge-list run checks one t between t-min and t-max
    ignored = ("n", "per_decade") if args.graph != "Kn" else ()
    _resolve_mode(args, "--graph FILE", ignored, n=3, per_decade=60)
    rng = np.random.default_rng(args.seed)
    if args.graph != "Kn":
        try:
            chain = load_edge_list(Path(args.graph).read_text())
        except (OSError, ValueError) as exc:  # a decode error is a ValueError
            raise ConfigError(f"cannot read graph {args.graph}: {exc}") from None
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
    ignored = {"kn": ("beta", "alpha", "dim", "x1", "x2"),
               "gauss": ("n", "beta", "alpha"), "frac": ("n", "dim")}[args.setting]
    _resolve_mode(args, f"--setting {args.setting}", ignored, n=3, beta=1.0,
                  dim=1, x1=0.5, x2=0.0)
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

    u0 = random_positive_field(rng)
    if not (abs(args.x1) <= u0.extent and abs(args.x2) <= u0.extent):
        raise ConfigError(f"--x1 and --x2 must lie on the grid, "
                          f"|x| <= {u0.extent:g}")
    prof = build_profile(args.beta, 1)
    alpha = args.alpha if args.alpha is not None else default_alpha(args.beta, 1)
    report = harnack_check_fractional(u0, args.beta, args.t1, args.t2,
                                      args.x1, args.x2, alpha, prof)
    payload = {"setting": "frac", "alpha": alpha,
               "m_form_bound": harnack_m_form_bound(alpha, args.beta, 1,
                                                    args.t1, args.t2,
                                                    constant_for(prof)),
               **report.params}
    manifest.register(runio.write_json_report(outdir / "harnack_frac.json",
                                              payload))
    return _emit_report(manifest, outdir, "harnack_frac", report)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        argv, config = _expand_config(argv)
        args = parser.parse_args(argv)
        if args.config != config:
            # a second file, an abbreviated flag, or a config key naming one
            raise ConfigError("--config takes one file, given in full as "
                              "--config FILE or --config=FILE")
    except SystemExit as exc:
        return int(exc.code or 0)
    except ConfigError as exc:
        print(f"liyau: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    outdir = resolve_outdir(args.outdir)
    manifest = RunManifest(config={})
    try:
        code = args.func(args, outdir, manifest)
        # echoed once the subcommand has filled in the defaults it reads
        manifest.config = _config_echo(args)
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
