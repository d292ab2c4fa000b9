"""Command line interface.

Every command prints a deterministic text summary by default; --json
switches to a machine format where all integers are decimal strings and
an absent upper bound is the string "infinity".  --meta writes timing to
stderr so the stdout payload stays byte-identical run to run.

Exit codes: 0 success, 2 bad input, 3 unsupported request.  validate
exits 1 when the file parses but its claims fail recomputation.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .abgroups import parse_group_literal, tensor, tor
from .errors import EquikError, InputError, UnsupportedError
from .fusion import (
    augmentation_ideal,
    circle_truncation,
    from_fusion_file,
    ideal_powers,
    lambda_expansion,
    lattice_quotient,
    regular_class_check,
    regular_dimension,
    ring_from_tag,
)
from .intmat import hnf, load_matrix, matrix_to_json_dict, snf
from .joins import (
    build_join_complex,
    join_k_theory_formula,
    mayer_vietoris_delta,
    reduced_homology,
)
from .kmodules import ModelDescriptor, max_nonvanishing_power
from .reports import (
    CONSTRUCTIONS,
    CollapseReport,
    CommutativeDimension,
    ExistenceReport,
    render_bound,
    report_from_json_dict,
    report_to_json_dict,
    validate,
)


def _matrix_lines(mat) -> list:
    return [" ".join(str(mat.entry(i, j)) for j in range(mat.cols)) for i in range(mat.rows)]


def _ring_arg(text: str):
    """Resolve a ring argument: built-in tag, circle:n, or a fusion file."""
    if text.startswith("circle:"):
        order = text.split(":", 1)[1]
        try:
            return circle_truncation(int(order))
        except ValueError:
            raise InputError(f"circle order must be an integer, got {order!r}") from None
    if text.endswith(".json") or "/" in text:
        return from_fusion_file(text)
    return ring_from_tag(text)


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns (payload dict, text lines, exit code)
# ---------------------------------------------------------------------------


def _cmd_linalg_snf(args):
    mat = load_matrix(args.matrix)
    dec = snf(mat)
    factors = dec.invariant_factors()
    payload = {
        "U": matrix_to_json_dict(dec.U),
        "D": matrix_to_json_dict(dec.D),
        "V": matrix_to_json_dict(dec.V),
        "invariant_factors": [str(d) for d in factors],
    }
    shown = " ".join(str(d) for d in factors) if factors else "none"
    lines = [f"invariant factors: {shown}", "D:"] + _matrix_lines(dec.D)
    return payload, lines, 0


def _cmd_linalg_hnf(args):
    mat = load_matrix(args.matrix)
    res = hnf(mat)
    payload = {
        "H": matrix_to_json_dict(res.H),
        "transform": matrix_to_json_dict(res.transform),
        "rank": str(res.rank),
    }
    lines = [f"rank {res.rank}", "H:"] + _matrix_lines(res.H)
    return payload, lines, 0


def _cmd_group(args):
    a = parse_group_literal(args.g1)
    b = parse_group_literal(args.g2)
    out = tensor(a, b) if args.group_op == "tensor" else tor(a, b)
    payload = {"group": out.to_json_dict(), "render": out.render()}
    return payload, [out.render()], 0


def _cmd_rep_ring(args):
    ring = _ring_arg(args.ring)
    aug = augmentation_ideal(ring)
    payload = {
        "rank": str(ring.rank),
        "labels": list(ring.labels),
        "aug_ideal_rank": str(aug.rank),
        "aug_basis": matrix_to_json_dict(aug.basis),
    }
    lines = [f"rank {ring.rank}", "labels: " + " ".join(ring.labels)]
    if ring.is_fusion:
        payload["dims"] = [str(d) for d in ring.aug]
        lines.append("dims: " + " ".join(str(d) for d in ring.aug))
    lines.append(f"augmentation ideal rank: {aug.rank}")
    return payload, lines, 0


def _cmd_rep_ideal_powers(args):
    ring = _ring_arg(args.ring)
    if args.max_power < 1:
        raise InputError("max power must be >= 1")
    quotients = []
    lines = []
    powers = ideal_powers(ring)
    outer = next(powers)
    for k in range(args.max_power):
        inner = next(powers)
        q = lattice_quotient(ring, outer, inner)
        quotients.append({"power": str(k), "group": q.to_json_dict()})
        lines.append(f"I^{k}/I^{k + 1}: {q.render()}")
        outer = inner
    return {"quotients": quotients}, lines, 0


def _cmd_rep_lambda(args):
    coeffs = lambda_expansion(args.p)
    terms = " + ".join(
        f"{c}*lambda^{j}" for j, c in enumerate(coeffs, start=1) if c
    )
    payload = {"p": str(args.p), "coefficients": [str(c) for c in coeffs]}
    lines = [
        "coefficients: " + " ".join(str(c) for c in coeffs),
        f"lambda^{args.p} = {terms}",
    ]
    return payload, lines, 0


def _cmd_rep_regular(args):
    ring = _ring_arg(args.ring)
    if not ring.is_fusion:
        raise InputError("the regular class check needs a finite fusion ring")
    element, annihilated = regular_class_check(ring)
    dim = regular_dimension(ring)
    payload = {
        "regular_class": [str(c) for c in element.coefficients],
        "dimension": str(dim),
        "annihilated": annihilated,
    }
    lines = [
        f"regular class: {ring.render_element(element.coefficients)}",
        f"regular dimension: {dim}",
        f"annihilated by the augmentation ideal: {'yes' if annihilated else 'no'}",
    ]
    return payload, lines, 0


_ORACLE_FACE_LIMIT = 2000


def _cmd_join_ktheory(args):
    k0, k1 = join_k_theory_formula(args.n, args.k)
    payload = {"n": str(args.n), "k": str(args.k), "k0_rank": str(k0), "k1_rank": str(k1)}
    if (args.n + 1) ** args.k - 1 <= _ORACLE_FACE_LIMIT:
        from .joins import oracle_consistency

        check = oracle_consistency(args.n, args.k)
        oracle = "consistent" if check.consistent else "inconsistent"
        payload["betti"] = [g.to_json_dict() for g in check.betti.groups]
    else:
        oracle = "skipped"
    payload["oracle"] = oracle
    line = f"K0 rank {k0}, K1 rank {k1}; oracle: {oracle}"
    return payload, [line], 0


def _cmd_join_homology(args):
    betti = reduced_homology(build_join_complex(args.n, args.k))
    payload = {"groups": [g.to_json_dict() for g in betti.groups]}
    lines = [f"H~{d}: {g.render()}" for d, g in enumerate(betti.groups)]
    return payload, lines, 0


def _cmd_join_mv_delta(args):
    rep = mayer_vietoris_delta(args.l, args.n)
    payload = {
        "rows": str(rep.delta0.rows),
        "cols": str(rep.delta0.cols),
        "kernel_rank": str(rep.kernel_rank),
        "cokernel": rep.cokernel.to_json_dict(),
    }
    lines = [
        f"map shape: {rep.delta0.rows} x {rep.delta0.cols}",
        f"kernel rank: {rep.kernel_rank}",
        f"cokernel: {rep.cokernel.render()}",
    ]
    return payload, lines, 0


def _cmd_rokhlin(args):
    construction = args.construction
    report = construction.build(
        **{a.name: getattr(args, a.name) for a in construction.arguments}
    )
    payload = report_to_json_dict(report)
    if isinstance(report, CommutativeDimension):
        lines = [f"dim {report.dim}, ind {report.ind}"]
    elif isinstance(report, CollapseReport):
        lines = []
        for i, factor in enumerate(report.factors, start=1):
            lines.append(f"factor {i}: {render_bound(factor.bound)}")
        lines.append(f"product: {render_bound(report.product.bound)}")
        lines.append(f"finding: {report.finding}")
    elif isinstance(report, ExistenceReport):
        lines = [f"existence-only: {report.note}"]
    else:
        lines = [render_bound(report.bound)]
    return payload, lines, 0


def _cmd_model(args):
    model = ModelDescriptor.parse(args.descriptor)
    module = model.instantiate()
    group = module.underlying_group()
    power = max_nonvanishing_power(module)
    payload = {
        "model": model.to_json_dict(),
        "ring_rank": str(module.ring.rank),
        "group": group.to_json_dict(),
        "max_nonvanishing_power": str(power),
    }
    lines = [
        f"model: {model.render()}",
        f"ring rank: {module.ring.rank}",
        f"group: {group.render()}",
        f"max nonvanishing ideal power: {power}",
    ]
    return payload, lines, 0


def _cmd_validate(args):
    with open(args.file, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except ValueError as exc:  # bad JSON or bytes that are not UTF-8
            raise InputError(f"cannot parse report file {args.file}: {exc}") from None
    report = report_from_json_dict(obj)
    ok = validate(report)
    payload = {"valid": ok}
    return payload, ["valid" if ok else "invalid"], 0 if ok else 1


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="equik",
        description="exact workbench for ideal filtrations, join K-theory, "
        "and certified dimension bounds",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine output")
    common.add_argument(
        "--meta", action="store_true", help="timing and command info on stderr"
    )
    top = parser.add_subparsers(dest="command", required=True)

    linalg = top.add_parser("linalg", help="integer matrix normal forms")
    linalg_sub = linalg.add_subparsers(dest="linalg_op", required=True)
    p = linalg_sub.add_parser("snf", parents=[common], help="Smith normal form")
    p.add_argument("matrix", help="matrix JSON file")
    p.set_defaults(func=_cmd_linalg_snf)
    p = linalg_sub.add_parser("hnf", parents=[common], help="row Hermite form")
    p.add_argument("matrix", help="matrix JSON file")
    p.set_defaults(func=_cmd_linalg_hnf)

    group = top.add_parser("group", help="finitely generated abelian groups")
    group_sub = group.add_subparsers(dest="group_op", required=True)
    for op in ("tensor", "tor"):
        p = group_sub.add_parser(op, parents=[common])
        p.add_argument("g1", help="group literal, e.g. Z_4 or Z^2+Z_6")
        p.add_argument("g2")
        p.set_defaults(func=_cmd_group)

    rep = top.add_parser("rep", help="character rings and ideal filtrations")
    rep_sub = rep.add_subparsers(dest="rep_op", required=True)
    p = rep_sub.add_parser("ring", parents=[common], help="describe a ring")
    p.add_argument("ring", help="tag (z2, z2xz3, circle:4) or fusion file")
    p.set_defaults(func=_cmd_rep_ring)
    p = rep_sub.add_parser(
        "ideal-powers", parents=[common], help="successive power quotients"
    )
    p.add_argument("ring")
    p.add_argument("--max-power", type=int, default=4)
    p.set_defaults(func=_cmd_rep_ideal_powers)
    p = rep_sub.add_parser(
        "lambda", parents=[common], help="top exterior power expansion"
    )
    p.add_argument("p", type=int, help="odd prime-order rank")
    p.set_defaults(func=_cmd_rep_lambda)
    p = rep_sub.add_parser(
        "regular", parents=[common], help="regular class annihilation check"
    )
    p.add_argument("ring")
    p.set_defaults(func=_cmd_rep_regular)

    join = top.add_parser("join", help="iterated joins of finite sets")
    join_sub = join.add_subparsers(dest="join_op", required=True)
    p = join_sub.add_parser("ktheory", parents=[common], help="K-theory ranks")
    p.add_argument("n", type=int, help="points per copy")
    p.add_argument("k", type=int, help="join copies")
    p.set_defaults(func=_cmd_join_ktheory)
    p = join_sub.add_parser("homology", parents=[common], help="reduced homology")
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.set_defaults(func=_cmd_join_homology)
    p = join_sub.add_parser(
        "mv-delta", parents=[common], help="comparison map of the join step"
    )
    p.add_argument("l", type=int, help="K0 rank of the partial join")
    p.add_argument("n", type=int, help="points in the new copy")
    p.set_defaults(func=_cmd_join_mv_delta)

    rok = top.add_parser("rokhlin", help="certified dimension bound reports")
    rok_sub = rok.add_subparsers(dest="rokhlin_op", required=True)
    for construction in CONSTRUCTIONS.values():
        p = rok_sub.add_parser(
            construction.command, parents=[common], help=construction.help
        )
        for a in construction.arguments:
            p.add_argument(
                a.name, type=a.type, help=a.help, metavar=a.metavar, choices=a.choices
            )
        p.set_defaults(func=_cmd_rokhlin, construction=construction)

    p = top.add_parser("model", parents=[common], help="inspect a K-theory model")
    p.add_argument("descriptor", help="trunc-z2:l, circle:n, trunc:<ring>:n, tensor(a,b)")
    p.set_defaults(func=_cmd_model)

    p = top.add_parser("validate", parents=[common], help="recheck a report file")
    p.add_argument("file", help="report JSON file")
    p.set_defaults(func=_cmd_validate)

    return parser


_parser_cache = (None, None)  # (the build_parser it came from, the parser)


def _parser() -> argparse.ArgumentParser:
    """The parser from build_parser, built on first use and then reused.

    It is built again only when build_parser has been rebound since (to a
    wrapper, say), so it always comes from the current builder.
    """
    global _parser_cache
    builder, parser = _parser_cache
    if builder is not build_parser:
        parser = build_parser()
        _parser_cache = (build_parser, parser)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    started = time.perf_counter()
    try:
        payload, lines, code = args.func(args)
    except UnsupportedError as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return 3
    except EquikError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for line in lines:
            print(line)
    if args.meta:
        elapsed = (time.perf_counter() - started) * 1000.0
        print(f"meta: command={args.command} elapsed_ms={elapsed:.1f}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
