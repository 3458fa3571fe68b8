"""Command-line front end.

Two semantics layers, kept deliberately separate: distribution arguments use
construction syntax (H factors are pointwise indicators, smooth*delta terms
expand through the atom rule, delta*delta is rejected), while the one-sided
algebra product is only ever applied by the `mul` command.

Exit codes: 0 success, 1 usage or syntax error, 2 mathematical domain error,
3 verification returned Unknown, and 1 when standard output is closed
before the result is written (as by `distalg ... | head -c 100`).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional, Sequence

from .dist import antiderivative, differentiate
from .errors import DistAlgError, ParseError, SemanticsError
from .expr import Verdict, poly_normal_form
from .fmt import (confined_to_jsonable, format_confined_latex,
                  format_confined_text, format_dist, report_to_jsonable)
from .parser import parse_dist, parse_rational, parse_smooth_expr
from .star import VariantTag, bracket, hormander, star_variant


class _UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def _parse_optional(self, arg_string):
        # values like '-1,1', '-x,1;0' or '-delta(x)' are data, not option
        # strings: no option name begins with the character after the '-'
        if (len(arg_string) > 1 and arg_string[0] == "-"
                and arg_string[1] not in {o[1] for o in
                                          self._option_string_actions}):
            return None
        return super()._parse_optional(arg_string)

    def error(self, message):  # argparse would exit(2); we map usage to 1
        raise _UsageError(message)


def _fill_from_stdin(values: List[Optional[str]]) -> List[str]:
    if all(v is not None and v != "-" for v in values):
        return values  # type: ignore[return-value]
    lines = iter(ln for ln in sys.stdin.read().splitlines() if ln.strip())
    out = []
    for v in values:
        if v is None or v == "-":
            try:
                out.append(next(lines))
            except StopIteration:
                raise _UsageError("expected a distribution on standard input")
        else:
            out.append(v)
    return out


def _quad_config(args):
    from .weak import QuadratureConfig
    nodes = getattr(args, "quad_nodes", None)
    if nodes is None:
        env = os.environ.get("DISTALG_QUAD_NODES", "").strip()
        if env:
            try:
                nodes = int(env)
            except ValueError:
                raise _UsageError(f"DISTALG_QUAD_NODES must be an integer, "
                                  f"got {env!r}")
        else:
            nodes = 64
    kwargs = {"nodes": nodes}
    sched = getattr(args, "eps_schedule", None)
    if sched is not None:
        try:
            eps = tuple(parse_rational(p) for p in sched.split(","))
        except ParseError:
            raise _UsageError(f"bad --eps-schedule {sched!r}")
        if not eps or any(e <= 0 for e in eps):
            raise _UsageError("--eps-schedule needs positive rationals")
        kwargs["eps_schedule"] = eps
    extrap = getattr(args, "extrapolation", None)
    if extrap is not None:
        kwargs["extrapolation"] = extrap
    return QuadratureConfig(**kwargs)


def _bump(text: str):
    from .weak import make_bump
    parts = [p.strip() for p in text.split(",")]
    if len(parts) not in (2, 3):
        raise _UsageError("--bump needs 'a,b' or 'a,b,c'")
    try:
        vals = [parse_rational(p) for p in parts]
    except ParseError:
        raise _UsageError(f"bad --bump {text!r}")
    if vals[0] >= vals[1]:
        raise _UsageError("--bump needs a < b")
    return make_bump(*vals)


def _ode(text: str):
    """'a_n,...,a_0;f' with coefficients highest order first."""
    from .ode import make_ode
    head, _, tail = text.partition(";")
    coeff_texts = [p.strip() for p in head.split(",")]
    if len(coeff_texts) < 2:
        raise _UsageError("--ode needs at least 'a_1,a_0'")
    coeffs = [parse_smooth_expr(p) for p in coeff_texts]
    rhs = parse_smooth_expr(tail.strip()) if tail.strip() else 0
    return make_ode(list(reversed(coeffs)), rhs)


def _confined(args):
    from .ode import confine_halfline, confine_interval
    ode = _ode(args.ode)
    parts = [p.strip() for p in args.interval.split(",")]
    try:
        if len(parts) == 1:
            return confine_halfline(ode, parse_rational(parts[0]))
        if len(parts) == 2:
            a, b = (parse_rational(p) for p in parts)
            return confine_interval(ode, a, b)
    except ParseError:
        pass
    raise _UsageError(f"bad --interval {args.interval!r}; use 'a' or 'a,b'")


def _print_complex(z: complex) -> None:
    z = complex(z)
    if abs(z.imag) <= 1e-12 * max(1.0, abs(z.real)):
        print(f"{z.real:.12g}")
    else:
        print(f"{z.real:.12g}{z.imag:+.12g}i")


# -- subcommand handlers ----------------------------------------------------


def _cmd_mul(args) -> int:
    f_text, g_text = _fill_from_stdin([args.F, args.G])
    F, G = parse_dist(f_text), parse_dist(g_text)
    if args.variant == "hormander":
        R = hormander(F, G)
    else:
        R = star_variant(F, G, VariantTag(args.variant))
    print(format_dist(R, args.mode))
    return 0


def _cmd_diff(args) -> int:
    if args.n < 0:
        raise _UsageError("-n must be nonnegative")
    (text,) = _fill_from_stdin([args.F])
    F = parse_dist(text)
    for _ in range(args.n):
        F = differentiate(F)
    print(format_dist(F, args.mode))
    return 0


def _cmd_antideriv(args) -> int:
    (text,) = _fill_from_stdin([args.F])
    print(format_dist(antiderivative(parse_dist(text)), args.mode))
    return 0


def _cmd_bracket(args) -> int:
    f_text, g_text = _fill_from_stdin([args.F, args.G])
    print(format_dist(bracket(parse_dist(f_text), parse_dist(g_text)),
                      args.mode))
    return 0


def _cmd_action(args) -> int:
    from .weak import action
    (text,) = _fill_from_stdin([args.F])
    _print_complex(action(parse_dist(text), _bump(args.bump),
                          _quad_config(args)))
    return 0


def _cmd_oracle(args) -> int:
    from .weak import star_oracle
    f_text, g_text = _fill_from_stdin([args.F, args.G])
    z = star_oracle(parse_dist(f_text), parse_dist(g_text), _bump(args.bump),
                    _quad_config(args), direction=args.direction)
    _print_complex(z)
    return 0


def _cmd_confine(args) -> int:
    ceq = _confined(args)
    if args.mode == "json":
        import json
        print(json.dumps(confined_to_jsonable(ceq), sort_keys=True))
    elif args.mode == "latex":
        print(format_confined_latex(ceq))
    else:
        print(format_confined_text(ceq))
    return 0


def _cmd_residual(args) -> int:
    from .ode import residual
    ceq = _confined(args)
    (text,) = _fill_from_stdin([args.candidate])
    print(format_dist(residual(ceq, parse_dist(text)), args.mode))
    return 0


def _cmd_particular_rhs(args) -> int:
    from .ode import particular_rhs
    ode = _ode(args.ode)
    vals = []
    for part in args.values.split(","):
        e = parse_smooth_expr(part.strip())
        p = poly_normal_form(e)
        if p is None or len(p) > 1:
            raise _UsageError(f"--values entries must be exact constants, "
                              f"got {part.strip()!r}")
        vals.append(p[0] if p else 0)
    F = particular_rhs(ode, vals, parse_rational(args.at))
    print(format_dist(F, args.mode))
    return 0


def _cmd_verify(args) -> int:
    from .ode import verify_confinement
    ceq = _confined(args)
    (text,) = _fill_from_stdin([args.psi])
    rep = verify_confinement(ceq, parse_smooth_expr(text))
    if args.mode == "json":
        import json
        print(json.dumps(report_to_jsonable(rep), sort_keys=True))
    else:
        print(f"verdict: {rep.verdict}")
        print(f"residual: {format_dist(rep.residual)}")
        print(f"classical_max: {rep.classical_max:.6g}")
        if not rep.leading_sampled_nonzero:
            print("warning: leading coefficient vanishes at a sample point")
    return 3 if rep.verdict is Verdict.UNKNOWN else 0


def _cmd_fmt(args) -> int:
    (text,) = _fill_from_stdin([args.F])
    print(format_dist(parse_dist(text), args.mode))
    return 0


# -- wiring -----------------------------------------------------------------


def _add_weak(p, schedule: bool):
    """The options of a weak action: the bump, the quadrature and, for the
    oracle, its eps limit."""
    p.add_argument("--bump", required=True, metavar="a,b[,c]",
                   help="bump supported on ]a,b[ with amplitude c")
    p.add_argument("--quad-nodes", type=int, default=None,
                   help="Gauss-Legendre nodes per panel "
                        "(default: DISTALG_QUAD_NODES or 64)")
    if schedule:
        p.add_argument("--eps-schedule", default=None,
                       help="comma list of positive rationals, e.g. "
                            "'1/100,1/1000,1/10000'")
        p.add_argument("--extrapolation",
                       choices=["richardson", "last-value"], default=None)
        p.add_argument("--direction", type=int, choices=[1, -1], default=1,
                       help="translation direction for the eps limit")


def build_parser() -> _ArgumentParser:
    top = _ArgumentParser(
        prog="distalg",
        description="Exact algebra of piecewise-smooth functions with delta "
                    "atoms: one-sided products, distributional calculus, a "
                    "numerical weak-action oracle, and ODE confinement.")
    sub = top.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def command(name, func, help, operands=(), ode=False, interval=False,
                mode=("text", "latex", "json")):
        """One subcommand, with the arguments that several share: optional
        distribution operands, --ode, --interval and --mode."""
        p = sub.add_parser(name, help=help)
        for dest in operands:
            p.add_argument(dest, nargs="?")
        if ode:
            p.add_argument("--ode", required=True, help="ODE coefficients "
                           "'a_n,...,a_0;f', highest order first")
        if interval:
            p.add_argument("--interval", required=True,
                           help="'a' for the half line ]a,oo[, or 'a,b'")
        if mode:
            p.add_argument("--mode", choices=list(mode), default="text",
                           help="output format")
        p.set_defaults(func=func)
        return p

    p = command("mul", _cmd_mul, "one-sided product of two distributions",
                ("F", "G"))
    p.add_argument("--variant", default="star",
                   choices=["star", "star2", "star3", "star4", "star5",
                            "hormander"])
    p = command("diff", _cmd_diff, "distributional derivative", ("F",))
    p.add_argument("-n", type=int, default=1,
                   help="number of derivatives (default 1)")
    command("antideriv", _cmd_antideriv,
            "antiderivative (polynomial pieces only)", ("F",))
    command("bracket", _cmd_bracket, "Lie bracket [F,G] = F*G - G*F",
            ("F", "G"))
    _add_weak(command("action", _cmd_action, "weak action <F,t> on a bump",
                      ("F",), mode=()), schedule=False)
    _add_weak(command("oracle", _cmd_oracle,
                      "translation-limit product action, numerically",
                      ("F", "G"), mode=()), schedule=True)
    command("confine", _cmd_confine,
            "transform an ODE so solutions are cut off",
            ode=True, interval=True)
    command("residual", _cmd_residual,
            "confined-equation residual of a candidate", ("candidate",),
            ode=True, interval=True)
    p = command("particular-rhs", _cmd_particular_rhs,
                "delta terms a cutoff particular solution adds", ode=True)
    p.add_argument("--at", required=True, help="endpoint location")
    p.add_argument("--values", required=True,
                   help="comma list psi(a),psi'(a),...,psi^(n-1)(a)")
    p = command("verify", _cmd_verify,
                "check that the cutoff of a smooth solution solves the "
                "confined equation", ode=True, interval=True,
                mode=("text", "json"))
    p.add_argument("psi", nargs="?",
                   help="smooth expression for the unconfined solution")
    command("fmt", _cmd_fmt, "parse and re-emit a distribution", ("F",))
    return top


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # the reader is gone; send the rest, and the flush at interpreter
        # exit, to devnull so that no second error is printed
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except (ParseError, SemanticsError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except DistAlgError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except SystemExit as e:  # argparse --help
        code = e.code
        return code if isinstance(code, int) else 0


if __name__ == "__main__":
    sys.exit(main())
