"""Command line interface.

Every command prints a deterministic text summary by default; --json
switches to a machine format where all integers are decimal strings and
an absent upper bound is the string "infinity", written exactly as
json.dumps(payload, indent=2) writes it.  --meta writes one JSON line of
timing to stderr, so the stdout payload stays byte-identical.  A request
whose first words name a subcommand, followed by one word per positional
and exact option words, is read straight from that subcommand parser's
actions, with no parse; argparse's nested parse of the whole tree reads
any other argv, to print help, a usage error or an unusual form.

Exit codes: 0 success, 2 bad input, 3 unsupported request.  validate
exits 1 when the file is well formed but differs from the rebuild of its
construction, and then names the first difference on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from json.encoder import encode_basestring_ascii as _escape

from .abgroups import TRIVIAL_GROUP, parse_group_literal, tensor, tor
from .errors import CapExceededError, EquikError, InputError, UnsupportedError
from .errors import charge, read_json
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
    tag_order,
)
from .intmat import IntMatrix, hnf, load_matrix, matrix_to_json_dict, snf
from .joins import (
    build_join_complex,
    join_k_theory_formula,
    mayer_vietoris_delta,
    oracle_consistency,
    reduced_homology,
)
from .kmodules import ModelDescriptor, max_nonvanishing_power
from .reports import (
    CONSTRUCTIONS,
    Argument,
    report_from_json_dict,
    report_lines,
    report_to_json_dict,
    validate,
)


def _matrix_lines(head, mat):
    """The lines head, then one per row of mat, made only as they are
    printed: with --json none is."""
    yield from head
    for i in range(mat.rows):
        yield " ".join([str(e) for e in mat.row(i)])


def _ring_arg(text: str):
    """Resolve a ring argument: built-in tag, circle:n, or a fusion file."""
    if text.startswith("circle:"):
        return circle_truncation(tag_order(text, "circle:"))
    if text.endswith(".json") or "/" in text:
        return from_fusion_file(text)
    return ring_from_tag(text)


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns (payload dict, text lines, exit code);
# main reads the lines once, and only without --json
# ---------------------------------------------------------------------------


def _cmd_linalg_snf(args):
    mat = load_matrix(args.matrix)
    m, n = mat.rows, mat.cols  # one unit per cell of the matrix and of U and V
    charge(m * (m + n) + n * n, f"the Smith form of a {m}x{n} matrix")
    dec = snf(mat)
    factors = dec.invariant_factors()
    payload = {
        "U": matrix_to_json_dict(dec.U),
        "D": matrix_to_json_dict(dec.D),
        "V": matrix_to_json_dict(dec.V),
        "invariant_factors": [str(d) for d in factors],
    }
    shown = " ".join(str(d) for d in factors) if factors else "none"
    lines = _matrix_lines([f"invariant factors: {shown}", "D:"], dec.D)
    return payload, lines, 0


def _cmd_linalg_hnf(args):
    mat = load_matrix(args.matrix)
    m, n = mat.rows, mat.cols  # one unit per cell of the matrix and its transform
    charge(m * (m + n), f"the Hermite form of a {m}x{n} matrix")
    res = hnf(mat)
    payload = {
        "H": matrix_to_json_dict(res.H),
        "transform": matrix_to_json_dict(res.transform),
        "rank": str(res.rank),
    }
    lines = _matrix_lines([f"rank {res.rank}", "H:"], res.H)
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
        "aug_basis": matrix_to_json_dict(IntMatrix.from_rows(aug.basis, cols=ring.rank)),
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
    charge(500 * args.max_power, f"{args.max_power} printed levels")  # 500 per level
    quotients = []
    lines = []
    powers = ideal_powers(ring, last=args.max_power)
    outer = next(powers)
    for k in range(args.max_power):
        if not outer.rank:
            q = TRIVIAL_GROUP  # 0/0: every power from here on is zero
        else:
            inner = next(powers)
            q = lattice_quotient(ring, outer, inner)
            outer = inner
        quotients.append({"power": str(k), "group": q.to_json_dict()})
        lines.append(f"I^{k}/I^{k + 1}: {q.render()}")
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


def _cmd_join_ktheory(args):
    k0, k1 = join_k_theory_formula(args.n, args.k)
    payload = {"n": str(args.n), "k": str(args.k), "k0_rank": str(k0), "k1_rank": str(k1)}
    try:
        check = oracle_consistency(args.n, args.k)
    except CapExceededError:  # the complex does not fit the work budget
        oracle = "skipped"
    else:
        oracle = "consistent" if check.consistent else "inconsistent"
        payload["betti"] = [g.to_json_dict() for g in check.betti.groups]
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


def _cmd_rokhlin(construction, args):
    report = construction.build(
        **{a.name: getattr(args, a.name) for a in construction.arguments}
    )
    return report_to_json_dict(report), report_lines(report), 0


def _cmd_model(args):
    try:  # parse and instantiate take one frame per tensor( level
        model = ModelDescriptor.parse(args.descriptor)
        module = model.instantiate()
    except RecursionError:
        raise InputError("model descriptor nests too deeply") from None
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
    reasons = []
    ok = validate(report_from_json_dict(read_json(args.file, "report")), reasons)
    if reasons:
        print(f"invalid: {reasons[0]}", file=sys.stderr)
    payload = {"valid": ok}
    return payload, ["valid" if ok else "invalid"], 0 if ok else 1


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


GROUPS = {
    "linalg": "integer matrix normal forms",
    "group": "finitely generated abelian groups",
    "rep": "character rings and ideal filtrations",
    "join": "iterated joins of finite sets",
    "rokhlin": "certified dimension bound reports",
}

# One row per subcommand, in the order --help lists them: (group, or None
# for a top-level command, name, help, handler, arguments).
_MATRIX = Argument("matrix", str, "matrix JSON file")
_GROUP = Argument("g1", str, "group literal, e.g. Z_4 or Z^2+Z_6")
_RING = Argument("ring", str)
COMMANDS = (
    ("linalg", "snf", "Smith normal form", _cmd_linalg_snf, (_MATRIX,)),
    ("linalg", "hnf", "row Hermite form", _cmd_linalg_hnf, (_MATRIX,)),
    ("group", "tensor", None, _cmd_group, (_GROUP, Argument("g2", str))),
    ("group", "tor", None, _cmd_group, (_GROUP, Argument("g2", str))),
    ("rep", "ring", "describe a ring", _cmd_rep_ring,
     (Argument("ring", str, "tag (z2, z2xz3, circle:4) or fusion file"),)),
    ("rep", "ideal-powers", "successive power quotients", _cmd_rep_ideal_powers,
     (_RING, Argument("--max-power", default=4))),
    ("rep", "lambda", "top exterior power expansion", _cmd_rep_lambda,
     (Argument("p", help="odd prime-order rank"),)),
    ("rep", "regular", "regular class annihilation check", _cmd_rep_regular, (_RING,)),
    ("join", "ktheory", "K-theory ranks", _cmd_join_ktheory,
     (Argument("n", help="points per copy"), Argument("k", help="join copies"))),
    ("join", "homology", "reduced homology", _cmd_join_homology, (Argument("n"), Argument("k"))),
    ("join", "mv-delta", "comparison map of the join step", _cmd_join_mv_delta,
     (Argument("l", help="K0 rank of the partial join"),
      Argument("n", help="points in the new copy"))),
    *(
        ("rokhlin", c.command, c.help, functools.partial(_cmd_rokhlin, c), c.arguments)
        for c in CONSTRUCTIONS.values()
    ),
    (None, "model", "inspect a K-theory model", _cmd_model,
     (Argument("descriptor", str, "trunc-z2:l, circle:n, trunc:<ring>:n, tensor(a,b)"),)),
    (None, "validate", "recheck a report file", _cmd_validate,
     (Argument("file", str, "report JSON file"),)),
)


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
    subparsers = {None: parser.add_subparsers(dest="command", required=True)}
    for group, name, help, handler, arguments in COMMANDS:
        if group not in subparsers:  # the group's first row
            g = subparsers[None].add_parser(group, help=GROUPS[group])
            subparsers[group] = g.add_subparsers(dest=f"{group}_op", required=True)
        # a help of None would still list the name under its group
        p = subparsers[group].add_parser(name, parents=[common], **({"help": help} if help else {}))
        for a in arguments:
            p.add_argument(a.name, **{k: v for k, v in a._asdict().items() if k != "name"})
        p.set_defaults(func=handler)
    return parser


@functools.lru_cache(maxsize=1)
def _parser(builder) -> argparse.ArgumentParser:
    """The parser builder makes, built on first use and reused until main
    passes a rebound build_parser (a wrapper, say)."""
    return builder()


def _leaf_values(leaf, words):
    """The values leaf.parse_args(words) sets, read from leaf's actions as
    argparse reads them, when each word is a positional's, an exact
    store_true option or an exact store option and its value, and only
    option strings start with -.  Any other shape, and a word a type or
    choice refuses, is None."""
    values, seen = {}, set()
    for a in leaf._actions:
        if a.dest is not argparse.SUPPRESS and a.default is not argparse.SUPPRESS:
            values.setdefault(a.dest, a.default)
    for dest, value in leaf._defaults.items():
        values.setdefault(dest, value)
    positionals = iter([a for a in leaf._actions if not a.option_strings])
    words = iter(words)
    try:
        for word in words:
            a = leaf._option_string_actions.get(word) if word[:1] == "-" else next(positionals, None)
            if type(a) is argparse._StoreTrueAction:
                values[a.dest] = a.const
            elif type(a) is argparse._StoreAction and a.nargs is None:
                if a.option_strings:
                    word = next(words, "-")
                if word[:1] == "-":
                    return None  # an option with no value, or a value starting with -
                values[a.dest] = a.type(word)
                if a.choices is not None and values[a.dest] not in a.choices:
                    return None
            else:  # help, --, an = form, an abbreviation, a leading - or a word too many
                return None
            seen.add(a)
        for a in leaf._actions:
            if a in seen:
                continue
            if a.required:
                return None  # a positional with no word
            if isinstance(a.default, str) and values.get(a.dest) is a.default:
                values[a.dest] = a.type(a.default)
    except (TypeError, ValueError, argparse.ArgumentTypeError):
        return None  # the nested parse prints the type's refusal
    return values


def _namespace(argv):
    """argv read straight from the actions of the subcommand parser its
    first words name; argparse's nested parse of the whole tree reads any
    other argv, to print help, a usage error or an unusual form."""
    parser = leaf = _parser(build_parser)
    named = {}  # command and <group>_op, as the nested parse sets them
    while sub := next((a for a in leaf._actions if type(a) is argparse._SubParsersAction), None):
        word = argv[len(named)] if len(named) < len(argv) else None
        if word not in sub.choices:
            return parser.parse_args(argv)  # help or a usage error
        named[sub.dest], leaf = word, sub.choices[word]
    values = _leaf_values(leaf, argv[len(named):])
    # leaf values win, as in the nested parse
    return parser.parse_args(argv) if values is None else argparse.Namespace(**{**named, **values})


def _json_text(value, indent="\n"):
    """json.dumps(value, indent=2) of a JSON tree whose keys are strings."""
    if isinstance(value, str):
        return _escape(value)
    if not value or not isinstance(value, (dict, list, tuple)):
        return json.dumps(value)  # a number, bool, None or empty container
    inner = indent + "  "
    if isinstance(value, dict):
        ends, items = "{}", [_escape(k) + ": " + _json_text(v, inner) for k, v in value.items()]
    else:  # a list of strings, such as matrix entries, is escaped in one map
        plain = all(type(v) is str for v in value)
        ends, items = "[]", map(_escape, value) if plain else [_json_text(v, inner) for v in value]
    return ends[0] + inner + ("," + inner).join(items) + indent + ends[1]


def main(argv=None) -> int:
    args = _namespace(sys.argv[1:] if argv is None else list(argv))
    started = time.perf_counter_ns()
    try:
        payload, lines, code = args.func(args)
    except UnsupportedError as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return 3
    except (EquikError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(_json_text(payload))
    else:
        for line in lines:
            print(line)
    if args.meta:
        elapsed = time.perf_counter_ns() - started
        print(json.dumps({"command": args.command, "elapsed_ns": elapsed}), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
