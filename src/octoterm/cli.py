"""Command-line front end.

    octoterm rel wnt|rank|closure|power|pre  "<relation>"  [N]
    octoterm affine check|wnt|terminate  <file-or-inline>
    octoterm prog analyze|summary|flat  <file>

Relations use the transition-label grammar over primed/unprimed
variables; programs use the `vars/init/transitions` file format.  Output
is human-readable text or JSON (--format json).  Exit codes: 0 analyzed,
2 parse or usage error, 3 input outside the supported fragment, 4 budget
exhausted (result still sound).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .affine import (
    NotPolynomiallyBounded,
    finite_monoid_wnt,
    is_finite_monoid,
    is_polynomially_bounded,
    sufficient_termination,
)
from .closure import kleene_pre_sequence, reflexive_transitive_closure
from .grammar import (
    FragmentError,
    ParseError,
    _NAME_START,
    _tokenize,
    as_affine,
    div_str,
    parse_formula,
    parse_rows,
    row_str,
    terms_str,
)
from .linarith import LinTerm
from .octagon import Octagon, oct_decode, oct_encode, oct_eq, relation_names, tight_close
from .presburger import Conj, Dnf
from .program import (
    Budgets,
    _summary,
    member_from_param_oct,
    nt_program,
    parse_program,
    is_flat,
)
from .ranking import NotWellFounded, prove_termination
from .term_oct import fast_power, var_names, wnt

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_FRAGMENT = 3
EXIT_BUDGET = 4


def _collect_vars(text: str) -> list[str]:
    """The names the grammar's lexer reads, unprimed and sorted; words in
    comments are not names."""
    names = {t.rstrip("'") for t in _tokenize(text)[0] if t[:1] in _NAME_START}
    return sorted(names - {"id", "true", "false"})


def _single_octagon(disjuncts) -> Octagon:
    if not all(isinstance(d, Octagon) for d in disjuncts):
        raise FragmentError("relation is affine, not octagonal; use `affine`")
    if len(disjuncts) != 1:
        raise FragmentError("octagonal analyses need a conjunctive relation")
    return disjuncts[0]


# -- rendering ----------------------------------------------------------------


def _conj_strs(c: Conj) -> tuple[list[str], list[str]]:
    return [row_str(t, rel) for t, rel in c.rows], [div_str(d.term, d.modulus) for d in c.divs]


def render_dnf_text(dnf: Dnf) -> str:
    if dnf.is_false:
        return "false"
    parts = []
    for c in dnf:
        rows, divs = _conj_strs(c)
        bits = rows + divs
        parts.append(" && ".join(bits) if bits else "true")
    if len(parts) == 1:
        return parts[0]
    return " || ".join(f"({p})" for p in parts)


def dnf_json(dnf: Dnf):
    out = []
    for c in dnf:
        rows, divs = _conj_strs(c)
        out.append({"atoms": rows, "divisibility": divs})
    return out


def render_octagon(o: Octagon, names: list[str]) -> str:
    """Minimized conjunction of octagonal atoms, grammar-compatible."""
    o = tight_close(o)
    if o.is_bottom:
        return "false"
    atoms = oct_decode(o)
    # drop atoms entailed by the rest
    kept = list(atoms)
    for a in list(kept):
        trial = [x for x in kept if x != a]
        if oct_eq(o, oct_encode(trial, o.num_vars)):
            kept = trial
    if not kept:
        return "true"

    def one(si, i, sj, j, c):
        if i == j and si == sj:
            # 2*si*x_i <= c
            if c % 2 == 0:
                return f"{names[i]} <= {c // 2}" if si > 0 else f"{names[i]} >= {-(c // 2)}"
            return f"{'2*' + names[i] if si > 0 else '-2*' + names[i]} <= {c}"
        lhs = ("" if si > 0 else "-") + names[i]
        lhs += (" + " if sj > 0 else " - ") + names[j]
        return f"{lhs} <= {c}"

    return " && ".join(sorted(one(*a) for a in kept))


def render_member(m, names) -> str:
    """A summary member as text; an unconstrained body reads ``true``."""
    rows, divs = _conj_strs(m.conj)
    body = " && ".join(rows + divs) or "true"
    if m.params:
        return f"exists {', '.join(m.params)} >= 0 . {body}"
    return body


# -- subcommands ---------------------------------------------------------------


def _emit(args, payload: dict, text: str) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text)


def cmd_rel(args) -> int:
    variables = _collect_vars(args.relation)
    rel = _single_octagon(parse_formula(args.relation, variables))
    n = len(variables)
    names = list(variables)
    if args.subcommand == "wnt":
        res = wnt(rel, n)
        out = render_octagon(res.set, names)
        payload = {"status": "ok", "command": "wnt", "wnt": out}
        text = out
        if args.box:
            from .oracle import BoxDomain, eval_membership, live_points

            box = BoxDomain.cube(n, -args.box, args.box)
            live = live_points(tight_close(rel), n, box)
            if res.set.is_bottom:
                sound = not live
            else:
                sound = all(eval_membership(res.set, p) for p in live)
            payload["box_check"] = "agree" if sound else "DISAGREE"
            text += f"\nbox check ({-args.box}..{args.box}): {payload['box_check']}"
        _emit(args, payload, text)
        return EXIT_OK
    if args.subcommand == "rank":
        res = prove_termination(rel, n)
        if isinstance(res, NotWellFounded):
            out = render_octagon(res.wnt_set, names)
            _emit(
                args,
                {"status": "not-well-founded", "wnt": out},
                f"not well founded; wnt: {out}",
            )
            return EXIT_OK
        proof = res.proof
        if proof.witness_relation.is_bottom:
            _emit(
                args,
                {"status": "well-founded", "witness": "false"},
                "well founded (witness relation is empty)",
            )
            return EXIT_OK
        canon = var_names(n)
        shown = LinTerm({names[i]: proof.function.coef(canon[i]) for i in range(n)})
        f_str = terms_str(shown)
        wit = render_octagon(proof.witness_relation, relation_names(names))
        payload = {
            "status": "well-founded",
            "ranking_function": f_str,
            "decrease": proof.decrease,
            "lower_bound": proof.lower_bound,
            "witness": wit,
        }
        text = (
            f"well founded\nranking function: {f_str}\n"
            f"decrease >= {proof.decrease}, lower bound {proof.lower_bound}\n"
            f"witness relation: {wit}"
        )
        _emit(args, payload, text)
        return EXIT_OK
    if args.subcommand == "closure":
        rtc = reflexive_transitive_closure(
            rel, n, args.max_prefix, args.max_period
        )
        lines = ["identity"]
        for mem in rtc.members:
            if isinstance(mem, Octagon):
                s = render_octagon(mem, relation_names(names))
            else:
                lr = member_from_param_oct(mem, tuple(names))
                s = render_member(lr, names)
            lines.append(s)
        payload = {"status": "ok", "exact": rtc.exact, "members": lines}
        _emit(args, payload, "\n".join(lines))
        return EXIT_OK if rtc.exact else EXIT_BUDGET
    if args.subcommand == "power":
        p = fast_power(rel, args.n, n)
        out = render_octagon(p, relation_names(names))
        _emit(args, {"status": "ok", "power": out}, out)
        return EXIT_OK
    if args.subcommand == "pre":
        seq = kleene_pre_sequence(rel, args.n, n)
        outs = [render_octagon(s, names) for s in seq]
        _emit(
            args,
            {"status": "ok", "pre": outs},
            "\n".join(f"pre^{i+1}: {s}" for i, s in enumerate(outs)),
        )
        return EXIT_OK
    raise AssertionError(args.subcommand)


def _read_input(arg: str) -> str:
    if os.path.exists(arg):
        with open(arg, "r", encoding="utf-8") as fh:
            return fh.read()
    return arg


def cmd_affine(args) -> int:
    text = _read_input(args.input)
    variables = _collect_vars(text)
    dnf = parse_rows(text, variables)
    if len(dnf) != 1:
        raise FragmentError("affine analyses need a conjunctive relation")
    rel = as_affine(dnf[0], variables)
    if rel is None:
        raise FragmentError("relation is not a deterministic affine update")
    if args.subcommand == "check":
        fm = is_finite_monoid(rel.a)
        pb = is_polynomially_bounded(rel.a)
        payload = {"finite_monoid": fm, "polynomially_bounded": pb}
        _emit(args, payload,
              f"finite monoid: {'yes' if fm else 'no'}\n"
              f"polynomially bounded: {'yes' if pb else 'no'}")
        return EXIT_OK
    if args.subcommand == "wnt":
        if not is_finite_monoid(rel.a):
            raise FragmentError("update matrix does not generate a finite monoid")
        dnf = finite_monoid_wnt(rel, list(variables))
        _emit(args, {"wnt": dnf_json(dnf)}, render_dnf_text(dnf))
        return EXIT_OK
    if args.subcommand == "terminate":
        try:
            dnf = sufficient_termination(rel, names=list(variables))
        except NotPolynomiallyBounded:
            raise FragmentError("matrix has an eigenvalue that is neither "
                                "zero nor a root of unity") from None
        _emit(args, {"sufficient_termination": dnf_json(dnf)}, render_dnf_text(dnf))
        return EXIT_OK
    raise AssertionError(args.subcommand)


def cmd_prog(args) -> int:
    program = parse_program(_read_input(args.input))
    budgets = Budgets(args.max_prefix, args.max_period, args.max_disjuncts)
    names = list(program.variables)
    if args.subcommand == "flat":
        res = is_flat(program)
        payload = {"flat": bool(res)}
        if not res:
            payload["reason"] = res.reason
        _emit(args, payload, "flat" if res else f"not flat: {res.reason}")
        return EXIT_OK
    if args.subcommand == "summary":
        for state in (args.source, args.target):
            if state not in program.states:
                print(f"usage error: the program has no state {state!r}", file=sys.stderr)
                return EXIT_PARSE
        members, exact, exhausted = _summary(
            program, args.source, args.target, budgets
        )
        lines = [render_member(m, names) for m in members]
        payload = {
            "status": "ok",
            "exact": exact,
            "members": lines,
        }
        _emit(args, payload, "\n".join(lines) if lines else "false")
        return EXIT_BUDGET if exhausted else EXIT_OK
    if args.subcommand == "analyze":
        res = nt_program(program, budgets)
        payload = {
            "status": "ok",
            "flat": res.flat,
            "exact": res.exact,
            "precondition": {"dnf": dnf_json(res.precondition)},
            "per_state": [
                {
                    "state": st,
                    "method": method,
                    "wnt": dnf_json(w),
                }
                for st, method, w in res.per_state
            ],
        }
        text_lines = [
            f"flat: {'yes' if res.flat else 'no'}",
            f"exact: {'yes' if res.exact else 'no'}",
            f"non-termination precondition: {render_dnf_text(res.precondition)}",
        ]
        for st, method, w in res.per_state:
            text_lines.append(f"  state {st} ({method}): {render_dnf_text(w)}")
        _emit(args, payload, "\n".join(text_lines))
        return EXIT_BUDGET if res.budget_exhausted else EXIT_OK
    raise AssertionError(args.subcommand)


def _at_least(low: int):
    """The argparse type of an integer >= low (argparse exits 2 on anything
    else): 1 for a power, chain length or budget, 0 for the box radius."""
    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            n = low - 1
        if n < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return n
    return parse


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="octoterm",
        description="Conditional termination analysis for integer loops and programs",
    )
    ap.add_argument("--format", choices=("text", "json"), default="text")
    defaults = Budgets()
    ap.add_argument("--max-prefix", type=_at_least(1), default=defaults.max_prefix,
                    help="periodicity detection prefix budget")
    ap.add_argument("--max-period", type=_at_least(1), default=defaults.max_period,
                    help="periodicity detection period budget")
    ap.add_argument("--max-disjuncts", type=_at_least(1), default=defaults.max_disjuncts,
                    help="summary disjunct cap before hull-merge")
    sub = ap.add_subparsers(dest="command", required=True)

    rel = sub.add_parser("rel", help="analyze one octagonal relation")
    rel_sub = rel.add_subparsers(dest="subcommand", required=True)
    for name, needs_n in (("wnt", False), ("rank", False), ("closure", False),
                          ("power", True), ("pre", True)):
        sp = rel_sub.add_parser(name)
        sp.add_argument("relation")
        if needs_n:
            sp.add_argument("n", type=_at_least(1))
        if name == "wnt":
            sp.add_argument("--box", type=_at_least(0), default=0, metavar="B",
                            help="cross-check wnt against the box oracle on [-B, B]^N (0: off)")
        sp.set_defaults(func=cmd_rel)

    aff = sub.add_parser("affine", help="analyze one affine relation")
    aff_sub = aff.add_subparsers(dest="subcommand", required=True)
    for name in ("check", "wnt", "terminate"):
        sp = aff_sub.add_parser(name)
        sp.add_argument("input", help="file or inline relation text")
        sp.set_defaults(func=cmd_affine)

    prog = sub.add_parser("prog", help="analyze a program file")
    prog_sub = prog.add_subparsers(dest="subcommand", required=True)
    sp = prog_sub.add_parser("analyze")
    sp.add_argument("input")
    sp.set_defaults(func=cmd_prog)
    sp = prog_sub.add_parser("summary")
    sp.add_argument("input")
    sp.add_argument("--from", dest="source", required=True)
    sp.add_argument("--to", dest="target", required=True)
    sp.set_defaults(func=cmd_prog)
    sp = prog_sub.add_parser("flat")
    sp.add_argument("input")
    sp.set_defaults(func=cmd_prog)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except FragmentError as e:
        print(f"not in fragment: {e}", file=sys.stderr)
        return EXIT_FRAGMENT


if __name__ == "__main__":
    sys.exit(main())
