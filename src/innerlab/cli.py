"""Experiment runner: subcommands over the library with CSV output.

Exit codes: 0 success, 2 precondition error, 3 resource/budget error,
4 numerical error, 64 usage error.  Config files are flat `key = value`
text; keys before any [section] header apply to every subcommand, keys
under [name] only to subcommand `name`.  A config value is parsed as
its flag (`--key=value`; a comma list for a repeatable flag), and flags
on the command line win; any option, required ones included, may come
from the config.  Complex numbers are written `re,im`.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import math
import sys

import numpy as np

from . import __version__, counting, distortion, lamination, lyapunov, parabolic
from .errors import BudgetError, InnerlabError, NumericalError, PreconditionError
from .innerfn import InnerModel, _model_lines
from .parabolic import HalfPlaneInner
from .preimage import DEFAULT_NODE_BUDGET, enumerate_ball

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_BUDGET = 3
EXIT_NUMERICAL = 4
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _parse_floats(text: str, form: str, sep: str = ",") -> list:
    """The floats of `text` split at `sep`, one per field of `form` (such
    as "re,im"); a wrong count or a field that is not a number is a
    PreconditionError."""
    try:
        values = [float(v) for v in text.split(sep)]
    except ValueError:
        values = []
    if len(values) != len(form.split(sep)):
        raise PreconditionError(f"bad value {text!r}; use {form}")
    return values


def _parse_complex(text: str) -> complex:
    return complex(*_parse_floats(text, "re,im"))


def load_model(path: str, kind: type):
    """The `kind` of model the subcommand needs, InnerModel or HalfPlaneInner
    (a `beta=` line marks its text form), from the file at `path`."""
    with open(path) as fh:
        text = fh.read()
    if any(key == "beta" for key, _ in _model_lines(text)) != (kind is HalfPlaneInner):
        raise PreconditionError(f"model file {path} is not of type {kind.__name__}")
    return kind.from_text(text)


def _config_defaults(path: str, section: str) -> dict:
    """The sectionless keys of a config file, then those of its [section];
    every other section is ignored."""
    cp = configparser.ConfigParser()
    with open(path) as fh:
        cp.read_string("[top]\n" + fh.read())
    out = {}
    for name in ("top", section):
        if cp.has_section(name):
            for key, val in cp.items(name):
                out[key.replace("-", "_")] = val
    return out


def _header(args, extra=()):
    lines = [f"innerlab {__version__}"]
    for key, val in sorted(vars(args).items()):
        if key == "config" or val is None:
            continue
        lines.append(f"config {key} = {val}")
    lines.extend(extra)
    return lines


def _write_csv(path, header_lines, columns: str, rows):
    """The `#` header lines, the column line, then one line per row of
    values: floats as .17g (round-trip exact), anything else by str()."""
    with open(path, "w", newline="") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        fh.write(columns + "\n")
        for row in rows:
            fh.write(",".join(format(v, ".17g") if isinstance(v, float) else str(v)
                              for v in row) + "\n")


COUNT_COLUMNS = "R,count,count_over_eR,cesaro,target,ratio"


def _grid(upto: float, step: float, budget: int):
    """R values step, 2 step, ... below `upto`, then `upto`; more of them
    than the run's node budget is a BudgetError, raised before allocating."""
    if not (0 < step < math.inf and upto < math.inf):
        raise PreconditionError(f"need 0 < R step < inf and R < inf, "
                                f"got {step:g}, {upto:g}")
    if upto / step > budget:
        raise BudgetError(f"R grid of {upto / step:.3g} values exceeds the "
                          f"node budget {budget}")
    out = list(np.arange(step, upto, step))
    if not out or out[-1] < upto:
        out.append(upto)
    return out


def cmd_count(args):
    F = load_model(args.model, InnerModel)
    z = _parse_complex(args.z)
    grid = _grid(args.R, args.R_step, args.node_budget)
    chi = args.chi if args.chi is not None else lyapunov.chi_jensen_oracle(F).value
    tree = enumerate_ball(F, z, args.R, node_budget=args.node_budget)
    rows = counting.counting_report(counting.CountingProfile.from_tree(tree),
                                    grid, counting.target_constant(z, chi))
    _write_csv(args.out, _header(args, (
        f"chi = {chi:.17g}", f"tree_nodes = {tree.size()}",
        f"explored = {tree.explored}",
        f"expand_radius = {tree.expand_radius:.17g}")), COUNT_COLUMNS,
        (r + (r.count_over_eR / r.target,) for r in rows))
    return EXIT_OK


def cmd_lyapunov(args):
    F = load_model(args.model, InnerModel)
    methods = (["quadrature", "jensen", "birkhoff"] if args.method == "all"
               else [args.method])
    rows = []
    for m in methods:
        if m == "quadrature":
            est = lyapunov.chi_quadrature(F, args.tol)
        elif m == "jensen":
            est = lyapunov.chi_jensen_oracle(F)
        else:
            est = lyapunov.chi_birkhoff(F, args.angle, args.n, seed=args.seed)
        rows.append((est.method, est.value, est.error))
    _write_csv(args.out, _header(args), "method,value,error", rows)
    return EXIT_OK


def cmd_distortion_scan(args):
    if not args.r_max:
        args.r_max = [1.0 - 1e-4]
    if args.truncation_K:
        family = [InnerModel.from_zeros(*[1.0 - 2.0 ** (-k) for k in range(1, K + 1)])
                  for K in args.truncation_K]
    else:
        family = [load_model(p, InnerModel) for p in args.model]
    rows = distortion.angular_derivative_criterion_scan(
        family, args.zeta, args.r_max, tol=args.tol)
    _write_csv(args.out, _header(args),
               "model_id,r_max,integral_mu,integral_eta,integral_delta,"
               "integral_alpha,log_angular_derivative", rows)
    return EXIT_OK


def cmd_orbit(args):
    F = load_model(args.model, InnerModel)
    if args.z is not None:
        pts = lamination.sample_interior_orbit(F, _parse_complex(args.z),
                                               args.n, seed=args.seed)
    else:
        pts = lamination.solenoid_orbits(F, args.n, seed=args.seed)[0]
    _write_csv(args.out, _header(args), "n,re,im",
               ((n, p.real, p.imag) for n, p in enumerate(pts)))
    return EXIT_OK


def cmd_xi_mass(args):
    F = load_model(args.model, InnerModel)
    box = lamination.AnnularBox(
        *_parse_floats(args.box, "r_lo,r_hi,theta_lo,theta_hi"))
    estimates = []
    try:
        estimates = lamination.xi_box_mass(F, box, args.max_depth,
                                           grid=(args.grid, args.grid))
    except BudgetError as exc:
        estimates = exc.partial
        raise
    finally:
        # Also on failure: a budget error's partial rows, else none.
        _write_csv(args.out, _header(args), "depth,mass,error",
                   ((e.depth, e.value, e.error) for e in estimates))
    return EXIT_OK


def cmd_total_mass(args):
    F = load_model(args.model, InnerModel)
    res = lamination.total_mass_check(F, args.r0, samples=args.samples,
                                      seed=args.seed)
    _write_csv(args.out, _header(args), "r0,mass,stderr,chi_ref,samples",
               [(res.r0, res.mass, res.stderr, res.chi_ref, res.samples)])
    return EXIT_OK


def cmd_shadow_sim(args):
    if args.bad_times == "none":
        bad = []
    elif args.bad_times == "pow2":
        bad = lamination.bad_times_pow2(args.T)
    elif args.bad_times == "all":
        bad = [(0.0, args.T)]
    else:
        bad = [tuple(_parse_floats(pair, "a:b", ":"))
               for pair in args.bad_times.split(",")]
    if args.curve_points < 1:
        raise PreconditionError("curve points must be at least 1")
    run = lamination.shadowing_simulation(bad, args.T, adversary=args.adversary,
                                          start=_parse_complex(args.start),
                                          step=args.step)
    keep = max(1, len(run.times) // args.curve_points)
    _write_csv(args.out, _header(args, (f"zeta_estimate = {run.zeta:.17g}",)),
               "t,avg_min_distance",
               zip(run.times[::keep], run.avg_curve[::keep]))
    return EXIT_OK


def cmd_parabolic_count(args):
    F = load_model(args.model, HalfPlaneInner)
    z = _parse_complex(args.z)
    lo, hi = _parse_floats(args.I, "x_lo,x_hi")
    grid = _grid(args.R, args.R_step, args.node_budget)
    chi = parabolic.chi_ell(F)
    profile = parabolic.enumerate_strip(F, z, (lo, hi), args.R,
                                        node_budget=args.node_budget)
    rows = counting.counting_report(counting.CountingProfile.from_strip(profile),
                                    grid, (hi - lo) / chi)
    _write_csv(args.out, _header(args, (
        f"chi_ell = {chi:.17g}",
        f"explored = {profile.explored}",
        f"target carries no Im(z) factor; multiply by Im(z) = {z.imag:.17g} "
        "for the empirically sharp constant",)), COUNT_COLUMNS,
        (r + (r.cesaro / r.target,) for r in rows))
    if args.dump_points:
        _write_csv(args.dump_points, [
            *F.to_text().splitlines(),
            f"z={z.real:.17g},{z.imag:.17g}",
            f"I=[{lo:.17g},{hi:.17g}] R={profile.cutoff:.17g}"],
            "generation,re,im,Im_height",
            ((g, p.real, p.imag, -math.log(p.imag)) for g, p in
             zip(profile.counted_generations, profile.counted_points)))
    return EXIT_OK


def cmd_accept(args):
    from . import acceptance
    results = acceptance.run_all()
    return EXIT_OK if all(r.passed for r in results) else EXIT_PRECONDITION


@functools.cache
def build_parser() -> _Parser:
    p = _Parser(prog="innerlab", description=__doc__)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)
    p.commands = sub.choices

    def common(sp, model=True):
        if model:
            sp.add_argument("--model", required=True, help="model file path")
        sp.add_argument("--out", required=True, help="output CSV path")
        sp.add_argument("--config", default=None,
                        help="key = value defaults file ([section] headers allowed)")

    sp = sub.add_parser("count", aliases=["cesaro"],
                        help="preimage counting N(z,R) report",
                        epilog="CSV columns: R, count, count_over_eR, cesaro, "
                               "target, ratio (= count_over_eR/target); "
                               "cesaro is the exact (1/R) int N e^-S dS.")
    common(sp)
    sp.add_argument("--z", required=True, help="base point re,im")
    sp.add_argument("--R", type=float, required=True)
    sp.add_argument("--R-step", type=float, default=1.0)
    sp.add_argument("--chi", type=float, default=None,
                    help="override the Jensen-oracle Lyapunov exponent")
    sp.add_argument("--node-budget", type=int, default=DEFAULT_NODE_BUDGET)

    sp = sub.add_parser("lyapunov", help="chi by quadrature/jensen/birkhoff",
                        epilog="CSV columns: method, value, error (abs "
                               "estimate; one std err for birkhoff).")
    common(sp)
    sp.add_argument("--method", choices=["quadrature", "jensen", "birkhoff", "all"],
                    default="all")
    sp.add_argument("--tol", type=float, default=1e-10)
    sp.add_argument("--n", type=int, default=10 ** 5, help="birkhoff orbit length")
    sp.add_argument("--angle", type=float, default=0.7, help="birkhoff start angle")
    sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("distortion-scan",
                        help="radial distortion integrals + angular derivative",
                        epilog="CSV columns: model_id, r_max, integral_mu, "
                               "integral_eta, integral_delta, integral_alpha, "
                               "log_angular_derivative.")
    common(sp, model=False)
    source = sp.add_mutually_exclusive_group(required=True)
    source.add_argument("--model", action="append", default=[],
                        help="model file (repeatable)")
    source.add_argument("--truncation-K", type=int, action="append", default=[],
                        help="the 1 - 2^-k truncation family (repeatable)")
    sp.add_argument("--zeta", type=float, default=0.0, help="boundary angle")
    sp.add_argument("--r-max", type=float, action="append", default=[],
                    help="default 1 - 1e-4 (repeatable)")
    sp.add_argument("--tol", type=float, default=1e-9)

    sp = sub.add_parser("orbit", help="sample a backward orbit to CSV",
                        epilog="CSV columns: n, re, im (z_{-n} coordinates).")
    common(sp)
    sp.add_argument("--n", type=int, default=100)
    sp.add_argument("--z", default=None,
                    help="re,im: interior orbit from z, else a solenoid orbit")
    sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("xi-mass", help="natural-measure box masses by depth",
                        epilog="CSV columns: depth, mass, error.")
    common(sp)
    sp.add_argument("--box", required=True, help="r_lo,r_hi,theta_lo,theta_hi")
    sp.add_argument("--max-depth", type=int, default=6)
    sp.add_argument("--grid", type=int, default=24)

    sp = sub.add_parser("total-mass", help="fundamental annulus mass vs chi",
                        epilog="CSV columns: r0, mass, stderr, chi_ref, samples. "
                               "The samples column is the nominal budget: "
                               "--samples // 256 draws (at least 16) for each of "
                               "the 256 strata, though only strata that straddle "
                               "the boundary of E* are sampled.")
    common(sp)
    sp.add_argument("--r0", type=float, default=0.99)
    sp.add_argument("--samples", type=int, default=10 ** 6)
    sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("shadow-sim", help="good/bad-times shadowing run",
                        epilog="CSV columns: t, avg_min_distance; the landing "
                               "estimate is in the header.")
    common(sp, model=False)
    sp.add_argument("--T", type=float, default=10 ** 4)
    sp.add_argument("--bad-times", default="pow2",
                    help="none | pow2 | all | a:b,c:d interval list")
    sp.add_argument("--adversary", choices=sorted(lamination.ADVERSARIES),
                    default="up_right")
    sp.add_argument("--start", default="2,1")
    sp.add_argument("--step", type=float, default=0.02,
                    help="output time-grid spacing; the integration is exact")
    sp.add_argument("--curve-points", type=int, default=500)

    sp = sub.add_parser("parabolic-count", help="strip counting N_I(z,R)",
                        epilog="CSV columns: R, count, count_over_eR, cesaro, "
                               "target (= |I|/chi_ell), ratio (= cesaro/target); "
                               "--dump-points writes generation, re, im, Im_height.")
    common(sp)
    sp.add_argument("--z", required=True)
    sp.add_argument("--I", required=True,
                    help="x_lo,x_hi (write --I=-1,1 for negative endpoints)")
    sp.add_argument("--R", type=float, required=True)
    sp.add_argument("--R-step", type=float, default=1.0)
    sp.add_argument("--node-budget", type=int, default=DEFAULT_NODE_BUDGET)
    sp.add_argument("--dump-points", default=None,
                    help="also dump counted points with Im_height column")

    sub.add_parser("accept", help="run the acceptance suite")
    for sp in sub.choices.values():
        # Fixed here: `_parse` lifts required options while it reads argv.
        sp.usage = sp.format_usage().removeprefix("usage: ").rstrip("\n")
    return p


# Reads --config alone (abbreviations too), so that without it argv is
# parsed once.  A misuse of it is left to the full parse to report.
_CONFIG_FLAG = argparse.ArgumentParser(add_help=False, exit_on_error=False)
_CONFIG_FLAG.add_argument("--config")


def _parse(parser, argv):
    """The arguments of `argv`: one parse without `--config`.  With it,
    argv is read first with required options lifted, to find the config
    file and the options argv gives; each config entry that names an
    option of the subcommand becomes `--flag=value` tokens, and the one
    full parse of `[command] + tokens + argv[1:]` enforces the required
    options, so any option, required ones included, may come from the
    config.  argv's own flags come after the tokens and so win.  A
    repeatable option (default []) takes one token per comma item, and
    none when argv gives it.  A bad value is argparse's usage error (exit
    64), followed by a line naming the config file."""
    sub = parser.commands.get(argv[0]) if argv else None
    try:
        path = _CONFIG_FLAG.parse_known_args(argv)[0].config
    except argparse.ArgumentError:
        path = None
    if sub is None or path is None:
        return parser.parse_args(argv)
    lifted = [x for x in (*sub._actions, *sub._mutually_exclusive_groups)
              if x.required]
    try:
        for x in lifted:
            x.required = False
        args = sub.parse_args(argv[1:])
    finally:
        for x in lifted:
            x.required = True
    try:
        # An alias (cesaro) reads the section of its command (count).
        entries = _config_defaults(args.config, sub.prog.split()[-1])
    except configparser.Error as exc:
        sub.error(f"config file {args.config}: {exc}")
    dests = {d.lower(): d for d in vars(args)}
    tokens = []
    for key, text in entries.items():
        dest = dests.get(key)
        if dest is None:
            continue
        flag = "--" + dest.replace("_", "-")
        given = getattr(args, dest)
        if not isinstance(given, list):
            tokens.append(f"{flag}={text}")
        elif not given:
            tokens.extend(f"{flag}={item.strip()}" for item in text.split(","))
    try:
        return parser.parse_args(argv[:1] + tokens + argv[1:])
    except SystemExit:
        print(f"innerlab: in config file {args.config}", file=sys.stderr)
        raise


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parse(parser, argv)
        # Resolved at each call, not bound in the parser that is built
        # once per process, so that a handler patched later runs.
        handler = {"count": cmd_count, "cesaro": cmd_count,
                   "lyapunov": cmd_lyapunov,
                   "distortion-scan": cmd_distortion_scan, "orbit": cmd_orbit,
                   "xi-mass": cmd_xi_mass, "total-mass": cmd_total_mass,
                   "shadow-sim": cmd_shadow_sim,
                   "parabolic-count": cmd_parabolic_count,
                   "accept": cmd_accept}[args.command]
        return handler(args)
    except BudgetError as exc:
        print(f"innerlab: budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except NumericalError as exc:
        print(f"innerlab: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (PreconditionError, InnerlabError, FileNotFoundError) as exc:
        print(f"innerlab: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except SystemExit as exc:   # a usage error, --help or --version
        return exc.code if exc.code is not None else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
