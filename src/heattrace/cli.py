"""Command-line interface.

Subcommands::

    heattrace coeffs      --space SPEC --n-max N [--format json|csv] ...
    heattrace closed-form --family SPEC | --model-file PATH ...
    heattrace growth      --space SPEC [--n-max N] [--epsilon E] ...
    heattrace verify      --suite NAME

Space specs combine atoms with combinators, mirroring how the underlying
spaces combine::

    sphere:MBAR  cp:MBAR  hp:MBAR  op2
    hyperbolic-odd:MBAR  su-star:MBAR  e6-f4  complex-group:A2
    dual(SPEC)   scale(SPEC, C2)   product(SPEC, SPEC, ...)

Exact values are serialized as "num/den" strings plus a pi power so nothing
is lost in transit; ``--decimal D`` adds rounded convenience values.  Output
is byte-for-byte deterministic for fixed inputs once ``--no-timestamp`` is
passed.  Exit codes: 0 success, 1 verification failure, 2 usage error,
3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import re
import sys
from collections.abc import Callable
from contextlib import contextmanager
from fractions import Fraction
from functools import reduce

from . import exactnum, growth, oracle, plancherel, rank1, series, verify
from .errors import HeatTraceError, InvariantViolation, UnsupportedSpaceError

SCHEMA_VERSION = "1.0"

_PLANCHEREL_ATOMS = {"hyperbolic-odd", "su-star", "e6-f4", "complex-group"}


# --- space-spec parsing -------------------------------------------------------


class SpecError(ValueError):
    pass


# The deepest combinator nesting a spec may have; the recursive parser and
# the plan's walk stay far below the interpreter's recursion limit.
_MAX_NESTING = 100


def parse_space(text: str) -> dict:
    """Parse a space spec into a tree of dicts (see module docstring); a spec
    that nests combinators more than _MAX_NESTING deep is refused unread."""
    tokens = _tokenize(text)
    depth = 0
    for token in tokens:
        depth += (token == "(") - (token == ")")
        if depth > _MAX_NESTING:
            raise SpecError(f"space spec nests combinators deeper than {_MAX_NESTING}")
    tree, pos = _parse_expr(tokens, 0, _atom)
    if pos != len(tokens):
        raise SpecError(f"trailing input in space spec: {_echoed(' '.join(tokens[pos:]))}")
    return tree


def _tokenize(text: str) -> list[str]:
    """The spec's tokens: each bracket and comma, and the stripped text between them."""
    return [t for t in map(str.strip, re.split(r"([(),])", text)) if t]


def _parse_expr(tokens: list[str], pos: int, leaf):
    """The expression at ``pos`` and the position after it; ``leaf`` reads a bare
    token there: :func:`_atom` for a space, :func:`_number` for scale's factor."""
    if pos >= len(tokens):
        raise SpecError("unexpected end of space spec")
    head = tokens[pos]
    if pos + 1 < len(tokens) and tokens[pos + 1] == "(":
        if head not in ("dual", "scale", "product"):
            raise SpecError(f"unknown combinator {_echoed(head)}")
        args = []
        pos += 2
        while True:
            child, pos = _parse_expr(tokens, pos, _number if head == "scale" and args else _atom)
            args.append(child)
            if pos >= len(tokens):
                raise SpecError("unclosed combinator")
            if tokens[pos] == ",":
                pos += 1
                continue
            if tokens[pos] == ")":
                pos += 1
                break
            raise SpecError(f"expected ',' or ')' near {_echoed(tokens[pos])}")
        if head == "dual":
            if len(args) != 1:
                raise SpecError("dual(...) takes exactly one space")
            return {"kind": "dual", "child": args[0]}, pos
        if head == "scale":
            if len(args) != 2 or not isinstance(args[1], Fraction):
                raise SpecError(_SCALE_USAGE)
            if args[1] <= 0:
                raise SpecError("scale factor must be positive")
            return {"kind": "scale", "c2": str(args[1]), "child": args[0]}, pos
        if len(args) < 2:
            raise SpecError("product(...) takes at least two spaces")
        return {"kind": "product", "children": args}, pos
    return leaf(head), pos + 1


def _atom(token: str) -> dict:
    name, _, param = token.partition(":")
    name = name.strip()
    param = param.strip()
    if name not in rank1.ATOMS and name not in _PLANCHEREL_ATOMS:
        raise SpecError(f"unknown space {_echoed(token)}")
    if name in ("op2", "e6-f4"):
        if param:
            raise SpecError(f"{name} takes no parameter")
        return {"kind": "atom", "family": name, "param": None}
    if not param:
        raise SpecError(f"{name} needs a parameter, e.g. {name}:2")
    if name == "complex-group":
        if not (param.isascii() and param[:1].isalpha() and param[1:].isdigit()):
            raise SpecError(f"complex-group parameter must look like 'A2', got {_echoed(param)}")
    elif not (param.isascii() and param.isdigit()):
        raise SpecError(f"{name} parameter must be a positive integer, got {_echoed(param)}")
    if sum(map(str.isdigit, param)) > exactnum.MAX_DIGITS:
        raise SpecError(f"{name} parameter has more than {exactnum.MAX_DIGITS} digits")
    return {"kind": "atom", "family": name, "param": param}


_SCALE_USAGE = "scale(SPEC, C2) takes a space and a positive rational"


def _number(token: str) -> Fraction:
    """The rational a bare token spells, read by :func:`exactnum.parse_rational`."""
    try:
        return exactnum.parse_rational(token)
    except exactnum.DigitLimitError:
        raise SpecError(f"scale factor {_echoed(token)} has more than {exactnum.MAX_DIGITS} "
                        "digits in its numerator or denominator") from None
    except ValueError:
        raise SpecError(_SCALE_USAGE) from None


def _model(node: dict) -> rank1.SpaceModel | plancherel.PlancherelModel:
    """The model of an atom, which applies the model's own refusals."""
    if node["family"] in rank1.ATOMS:
        return rank1.atom_model(node["family"], node["param"])
    return plancherel.build_family(node["family"].replace("-", "_"), node["param"])


# The normalization label of an atom's family; a product's is "composite".
_LABELS = {"sphere": "unit_curvature", **dict.fromkeys(_PLANCHEREL_ATOMS, "killing")}


def _plan(tree: dict, n_max: int, oracle_precision: int | None = None,
          n_min: int | None = None) -> tuple[Callable[[], series.HeatSeries], dict]:
    """Check a request on a parsed space tree before any series is built.

    One walk builds each atom's model once, which applies the model's own
    refusals; :func:`oracle.require_fit` refuses an oracle fill at
    ``oracle_precision`` that a gapped atom's fit cannot serve.  Only a
    sphere's gap is filled, with the exact binary fractions of a fit of the
    unit S^{2 mbar} to order threshold - 1, flagged approximate.  Returns a
    zero-argument builder that reuses the models, and the normalization.
    Each distinct atom is built once: atoms with equal models share one series,
    stored after any oracle fill, so product(X, dual(X)) builds X once and
    product(X, X) hands series.product one object twice.  Sharing is safe
    because dual, scale and product return new series; none outlives the call.

    A growth window from ``n_min`` is refused here, before the build, by
    :func:`growth.check_window`, which owns the window rules.  It gets the
    gap the build will have (a rank-one atom's 1..threshold-1; dual and scale
    keep their child's, and a product's runs to n_max when a factor has one),
    flagged unavailable, and, for a tree of Plancherel atoms alone, the
    (kappa, deg P bound) of its e^{kappa t} P(t): -rho_sq and (m - r) / 2 per
    atom, kappa negated by dual and times c2 under scale, both summed over a
    product.  A tree with a rank-one atom never vanishes and passes none.

    An atom's normalization {"label", "scale"} is its family's label
    (:data:`_LABELS`, else "custom") at scale 1; dual keeps its child's,
    scale multiplies its child's scale by c2, and a product is "composite".
    """

    built: dict[rank1.SpaceModel | plancherel.PlancherelModel, series.HeatSeries] = {}

    def once(model, build: Callable[[], series.HeatSeries]) -> Callable[[], series.HeatSeries]:
        def shared() -> series.HeatSeries:
            if model not in built:
                built[model] = build()
            return built[model]
        return shared

    def walk(node: dict) -> tuple[range, Callable[[], series.HeatSeries],
                                  tuple[Fraction, int] | None, tuple[str, Fraction]]:
        """The gap, the builder, (kappa, deg bound) if Plancherel-only, and the normalization."""
        kind = node["kind"]
        if kind == "atom":
            model = _model(node)
            norm = (_LABELS.get(node["family"], "custom"), Fraction(1))
            if isinstance(model, plancherel.PlancherelModel):
                return (range(0),
                        once(model, lambda: plancherel.to_series(plancherel.closed_form(model),
                                                                 n_max)),
                        (-model.rho_sq, (model.m - model.r) // 2), norm)
            gap = range(1, min(model.threshold, n_max + 1))
            if oracle_precision is None or not gap:
                return gap, once(model, lambda: rank1.rank1_series(model, n_max)), None, norm
            if model.family != "sphere":
                raise UnsupportedSpaceError(
                    f"oracle fill is only available for spheres, not {model.family}")
            orders = model.threshold - 1
            oracle.require_fit(orders, oracle_precision)

            def filled() -> series.HeatSeries:
                # The fit spans the whole gap whatever n_max cuts from it, so a
                # cut gap holds the same values.
                from mpmath.libmp import to_rational

                s = rank1.rank1_series(model, n_max)
                fitted = oracle.fit_coefficients(2 * model.mbar, orders, oracle_precision)
                s.coeffs[1:gap.stop] = [Fraction(*to_rational(f._mpf_))
                                        for f in fitted[1:gap.stop]]
                s.flag = series.APPROXIMATE
                return s

            return gap, once(model, filled), None, norm
        if kind in ("dual", "scale"):
            gap, build, form, norm = walk(node["child"])
            if kind == "dual":
                return gap, lambda: series.dualize(build()), form and (-form[0], form[1]), norm
            c2 = Fraction(node["c2"])
            return (gap, lambda: series.rescale(build(), c2), form and (c2 * form[0], form[1]),
                    (norm[0], c2 * norm[1]))
        gaps, builds, forms, _ = zip(*(walk(c) for c in node["children"]))
        return (range(1, n_max + 1) if any(gaps) else range(0),
                lambda: reduce(series.product, (build() for build in builds)),
                None if None in forms else (sum(k for k, _ in forms), sum(d for _, d in forms)),
                ("composite", Fraction(1)))

    gap, build, form, (label, scale) = walk(tree)
    if n_min is not None:
        try:
            growth.check_window(n_min, n_max, gap, series.UNAVAILABLE, exppoly=form)
        except ValueError as exc:
            raise SpecError(exc) from None
    return build, {"label": label, "scale": str(scale)}


# --- documents ----------------------------------------------------------------


@contextmanager
def _any_int_digits():
    """Lift the interpreter's int <-> str digit limit for exact coefficients.

    Deep coefficients pass the default 4300-digit limit (sphere:1 at
    n = 975).  The limit guards the parsing of untrusted numbers, so in the
    package only :func:`_frac_fields`, which writes exact values, lifts it.
    """
    if not hasattr(sys, "set_int_max_str_digits"):  # interpreters without the limit
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def _frac_fields(values: list[Fraction]) -> list[dict]:
    """Each value's document fields: the one place a coefficient becomes text,
    under one lift of the digit limit per document."""
    with _any_int_digits():
        return [{"num": str(v.numerator), "den": str(v.denominator), "pi_power": 0}
                for v in values]


def _decimal(value: Fraction, digits: int) -> str:
    import mpmath as mp

    with mp.workdps(digits + 10):
        return mp.nstr(mp.mpf(value.numerator) / value.denominator, digits)


def _stamped(doc: dict, timestamp: bool) -> dict:
    """doc, with a generated_at field unless the output must be deterministic."""
    if timestamp:
        from datetime import datetime, timezone

        doc["generated_at"] = datetime.now(timezone.utc).isoformat(timespec="seconds")
    return doc


def coefficients_document(spec: str, tree: dict, normalization: dict, s: series.HeatSeries,
                          decimal: int | None, timestamp: bool) -> dict:
    """The coefficients document; ``normalization`` is :func:`_plan`'s."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "coefficients",
        "space": {"spec": spec, "tree": tree},
        "normalization": normalization,
        "coefficients": [],
        "provenance": [s.provenance],
    }
    for n, (fields, flag) in enumerate(zip(_frac_fields(s.coeffs), s.validity)):
        entry = {"n": n, **fields, "validity": flag}
        if decimal is not None:
            entry["decimal"] = _decimal(s.coeffs[n], decimal)
        doc["coefficients"].append(entry)
    return _stamped(doc, timestamp)


# The writers stream a document to ``out`` as they render it, so its text is
# held once, in the fields, and never joined into one string.


def write_json(doc: dict, out) -> None:
    """doc as two-space indented JSON and a newline."""
    json.dump(doc, out, indent=2)
    out.write("\n")


def write_csv(s: series.HeatSeries, out) -> None:
    """The header, then one row per coefficient."""
    # every field is an integer or a flag word, so no field needs quoting
    out.write("n,num,den,pi_power,validity\n")
    for n, (f, flag) in enumerate(zip(_frac_fields(s.coeffs), s.validity)):
        out.write(f"{n},{f['num']},{f['den']},{f['pi_power']},{flag}\n")


# --- subcommands ----------------------------------------------------------------


def _check_n_max(args) -> None:
    """Refuse an n_max over --n-max-limit before any parsing or building."""
    if args.n_max > args.n_max_limit:
        raise SpecError(f"n_max {_shown(args.n_max)} exceeds the limit "
                        f"{_shown(args.n_max_limit)} (raise it with --n-max-limit)")


def cmd_coeffs(args, out) -> int:
    _check_n_max(args)
    tree = parse_space(args.space)
    build, normalization = _plan(tree, args.n_max,
                                 args.oracle_precision if args.oracle_fill else None)
    s = build()
    if args.format == "csv":
        write_csv(s, out)
    else:
        write_json(coefficients_document(args.space, tree, normalization, s, args.decimal,
                                         not args.no_timestamp), out)
    return 0


def cmd_closed_form(args, out) -> int:
    if args.model_file:
        model = plancherel.load_model_file(args.model_file)
    else:
        tree = parse_space(args.family)
        if tree["kind"] != "atom" or tree["family"] not in _PLANCHEREL_ATOMS:
            raise SpecError("closed-form expects a polynomial-Plancherel family atom "
                            "(hyperbolic-odd:M, su-star:M, e6-f4, complex-group:XN)")
        model = _model(tree)
    form = plancherel.closed_form(model)
    kappa, *poly = _frac_fields([form.kappa, *form.poly])
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "closed_form",
        "family": model.label,
        "m": model.m,
        "r": model.r,
        "rho_sq": f"{model.rho_sq.numerator}/{model.rho_sq.denominator}",
        "kappa": kappa,
        "poly": [{"h": h, **fields} for h, fields in enumerate(poly)],
        "degree": form.degree,
        "degree_bound": form.degree_bound,
        "leading_t_exponent": str(form.leading_t_exponent),
        "provenance": list(model.notes),
    }
    if args.decimal is not None:
        doc["kappa"]["decimal"] = _decimal(form.kappa, args.decimal)
        for entry, c in zip(doc["poly"], form.poly):
            entry["decimal"] = _decimal(c, args.decimal)
    write_json(_stamped(doc, not args.no_timestamp), out)
    return 0


def cmd_growth(args, out) -> int:
    _check_n_max(args)
    tree = parse_space(args.space)
    build, _ = _plan(tree, args.n_max, n_min=args.n_min)
    s = build()
    report = growth.growth_report(s, n_min=args.n_min, epsilons=tuple(args.epsilon or [0.2]))
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "growth",
        "space": {"spec": args.space, "tree": tree},
        "n_max": args.n_max,
        "growth": {
            "classification": report.classification,
            "C_estimate": report.C_estimate,
            "epsilon_band": [{"epsilon": e, "N": n} for e, n in report.epsilon_band],
            "C1_min": report.C1_min,
        },
        "provenance": [s.provenance],
    }
    write_json(_stamped(doc, not args.no_timestamp), out)
    return 0


def cmd_verify(args, out) -> int:
    results = verify.run_suite(args.suite)
    failed = 0
    for res in results:
        status = "PASS" if res.ok else "FAIL"
        out.write(f"[{status}] {res.name}: {res.detail}\n")
        failed += 0 if res.ok else 1
    out.write(f"{len(results) - failed}/{len(results)} checks passed\n")
    return 0 if failed == 0 else 1


# --- entry point ------------------------------------------------------------------


# The most characters of a rejected option, or digits of an integer, that a
# message repeats; a longer one is named by its length.
_ECHO = 20


def _echoed(text: str) -> str:
    """A rejected option's text as a message quotes it."""
    if len(text) <= _ECHO:
        return repr(text)
    return f"{text[:_ECHO]!r}... ({len(text)} characters)"


def _shown(value: int) -> str:
    """An integer as a message names it."""
    text = str(value)
    digits = len(text) - (value < 0)
    if digits <= _ECHO:
        return text
    return f"{text[:_ECHO + (value < 0)]}... ({digits} digits)"


def _count(lo: int, hi: int | None = None) -> Callable[[str], int]:
    """The argparse type of every integer option: an integer from lo to hi (None: unbounded)."""
    def read(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {_echoed(text)}") from None
        if value < lo or hi is not None and value > hi:
            span = f"at least {lo}" if hi is None else f"in [{lo}, {hi}]"
            raise argparse.ArgumentTypeError(f"must be {span}, got {_shown(value)}")
        return value
    return read


def _epsilon(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {_echoed(text)}") from None
    if not 0 < value < 1:
        raise argparse.ArgumentTypeError(f"must lie strictly between 0 and 1, got {_echoed(text)}")
    return value


def _choice(names: tuple[str, ...]) -> Callable[[str], str]:
    """The argparse type of an option that names one of ``names``."""
    def read(text: str) -> str:
        if text not in names:
            raise argparse.ArgumentTypeError(f"invalid choice: {_echoed(text)} "
                                             "(--help lists the choices)")
        return text
    return read


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heattrace",
        description="Exact heat-trace coefficients of rank-one symmetric spaces "
                    "and polynomial-Plancherel families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, decimal=False):
        p.add_argument("--no-timestamp", action="store_true",
                       help="omit the generated_at field (deterministic output)")
        if decimal:
            p.add_argument("--decimal", type=_count(1, exactnum.MAX_DIGITS), metavar="D",
                           help="add decimal renderings with D significant digits "
                                f"(1 to {exactnum.MAX_DIGITS})")
        p.add_argument("-o", "--output", dest="out", default="-",
                       help="write to a file instead of stdout")

    def n_max(p, **kwargs):
        p.add_argument("--n-max", type=_count(0), **kwargs)
        p.add_argument("--n-max-limit", type=_count(0), default=1000,
                       help="refuse any --n-max above this (default 1000)")

    p = sub.add_parser("coeffs", help="coefficient table of a space spec")
    p.add_argument("--space", required=True, help="space spec, e.g. 'sphere:1' or "
                   "'product(hyperbolic-odd:1, dual(hyperbolic-odd:1))'")
    n_max(p, required=True)
    p.add_argument("--format", type=_choice(("json", "csv")), default="json",
                   help="json (the default) or csv")
    p.add_argument("--oracle-fill", action="store_true",
                   help="fill below-threshold indices from the spectral oracle "
                        "(spheres only; flagged approximate)")
    p.add_argument("--oracle-precision", type=_count(1, oracle.MAX_PRECISION), default=30)
    common(p, decimal=True)
    p.set_defaults(fn=cmd_coeffs)

    p = sub.add_parser("closed-form", help="exponential-times-polynomial trace form")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--family", help="family atom, e.g. hyperbolic-odd:2")
    source.add_argument("--model-file", help="JSON model description (see README)")
    common(p, decimal=True)
    p.set_defaults(fn=cmd_closed_form)

    p = sub.add_parser("growth", help="growth diagnostics of a space spec")
    p.add_argument("--space", required=True)
    n_max(p, default=300)
    p.add_argument("--n-min", type=_count(1), default=50)
    p.add_argument("--epsilon", type=_epsilon, action="append", default=None)
    common(p)
    p.set_defaults(fn=cmd_growth)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("--suite", type=_choice(verify.SUITE_NAMES), required=True,
                   help=f"one of: {', '.join(verify.SUITE_NAMES)}")
    common(p)
    p.set_defaults(fn=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.out == "-":
            try:
                return args.fn(args, sys.stdout)
            except BrokenPipeError:
                # The reader left mid-document, as `| head` does.  Every refusal
                # comes before the first byte, so the request succeeded; what is
                # still buffered goes to the null device, not the closed pipe.
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
                return 0
        buf = io.StringIO()  # the file is opened only once the output is complete
        code = args.fn(args, buf)
        with open(args.out, "w") as f:
            f.write(buf.getvalue())
        return code
    except InvariantViolation as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 3
    except (HeatTraceError, SpecError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
