"""Command-line front end.

    octoterm rel wnt|rank|closure|power|pre  "<relation>"  [N]
    octoterm affine check|wnt|terminate  <file-or-inline>
    octoterm prog analyze|summary|flat  <file>

Relations use the transition-label grammar over primed/unprimed
variables; programs use the `vars/init/transitions` file format.  Output
is human-readable text or JSON (--format json).  Exit codes: 0 analyzed,
2 parse error, 3 input outside the supported fragment, 4 budget
exhausted (result still sound).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .affine import (
    AffineRel,
    NotPolynomiallyBounded,
    finite_monoid_wnt,
    is_finite_monoid,
    is_polynomially_bounded,
    sufficient_termination,
)
from .closure import reflexive_transitive_closure
from .dbm import INF
from .grammar import (
    AffLabel,
    FragmentError,
    ParseError,
    parse_formula,
)
from .linarith import LE, LinTerm
from .octagon import Octagon, oct_decode, oct_eq, oct_exists, tight_close
from .presburger import Conj, Dnf, DivAtom
from .program import (
    Budgets,
    nt_program,
    parse_program,
    transitive_relation,
    is_flat,
    Flat,
)
from .ranking import (
    TriviallyWF,
    prove_termination,
)
from .term_oct import fast_power, wnt
from .closure import kleene_pre_sequence

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_FRAGMENT = 3
EXIT_BUDGET = 4


def _collect_vars(text: str) -> list[str]:
    import re

    names = []
    for m in re.finditer(r"[A-Za-z_][A-Za-z_0-9]*'?", text):
        w = m.group(0).rstrip("'")
        if w in ("id", "true", "false"):
            continue
        if w not in names:
            names.append(w)
    return sorted(names)


def _parse_relation(text: str, variables: list[str] | None):
    if variables is None:
        variables = _collect_vars(text)
    disjuncts = parse_formula(text, variables)
    return variables, disjuncts


def _single_octagon(disjuncts, variables) -> Octagon:
    octs = []
    for d in disjuncts:
        if isinstance(d, AffLabel):
            raise FragmentError("relation is affine, not octagonal; use `affine`")
        octs.append(d.relation)
    if len(octs) != 1:
        raise FragmentError("octagonal analyses need a conjunctive relation")
    return octs[0]


# -- rendering ----------------------------------------------------------------


def _coef_str(c: int, v: str) -> str:
    if c == 1:
        return v
    if c == -1:
        return f"-{v}"
    return f"{c}*{v}"


def _row_str(t: LinTerm, rel: str) -> str:
    terms = sorted(t.coeffs.items())
    out = ""
    for i, (v, c) in enumerate(terms):
        c = int(c)
        if i == 0:
            out = _coef_str(c, v)
        elif c >= 0:
            out += f" + {_coef_str(c, v)}"
        else:
            out += f" - {_coef_str(-c, v)}"
    op = "<=" if rel == LE else "=="
    return f"{out} {op} {int(-t.const)}"


def _div_str(d: DivAtom) -> str:
    terms = sorted(d.term.coeffs.items())
    out = ""
    for i, (v, c) in enumerate(terms):
        c = int(c)
        if i == 0:
            out = _coef_str(c, v)
        elif c >= 0:
            out += f" + {_coef_str(c, v)}"
        else:
            out += f" - {_coef_str(-c, v)}"
    r = int((-d.term.const) % d.modulus)
    return f"{out} % {d.modulus} == {r}"


def _conj_strs(c: Conj) -> tuple[list[str], list[str]]:
    return [_row_str(t, rel) for t, rel in c.rows], [_div_str(d) for d in c.divs]


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
    from .octagon import oct_encode

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
                return f"{'-' if si < 0 else ''}{names[i]} <= {c // 2}" if si > 0 else f"{names[i]} >= {-(c // 2)}"
            return f"{'2*' + names[i] if si > 0 else '-2*' + names[i]} <= {c}"
        lhs = ("" if si > 0 else "-") + names[i]
        lhs += (" + " if sj > 0 else " - ") + names[j]
        return f"{lhs} <= {c}"

    return " && ".join(sorted(one(*a) for a in kept))


def render_member(m, names) -> str:
    rows, divs = _conj_strs(m.conj)
    body = " && ".join(rows + divs)
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
    try:
        variables, disjuncts = _parse_relation(args.relation, None)
        rel = _single_octagon(disjuncts, variables)
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except FragmentError as e:
        print(f"not in fragment: {e}", file=sys.stderr)
        return EXIT_FRAGMENT
    n = len(variables)
    names = list(variables)
    if args.subcommand == "wnt":
        res = wnt(rel, n)
        out = render_octagon(res.set, names)
        if res.set.is_bottom:
            out = "false"
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
        from .ranking import NotWellFounded, WellFounded

        if isinstance(res, NotWellFounded):
            out = render_octagon(res.wnt_set, names)
            _emit(
                args,
                {"status": "not-well-founded", "wnt": out},
                f"not well founded; wnt: {out}",
            )
            return EXIT_OK
        proof = res.proof
        if isinstance(proof, TriviallyWF):
            _emit(
                args,
                {"status": "well-founded", "witness": "false"},
                "well founded (witness relation is empty)",
            )
            return EXIT_OK
        from .ranking import var_names

        canon = var_names(n)
        shown = LinTerm({names[i]: proof.function.coef(canon[i]) for i in range(n)})
        f_str = _row_str(shown, LE).split(" <=")[0]
        wit = render_octagon(proof.witness_relation, names + [v + "'" for v in names])
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
        from .program import member_from_octagon, member_from_param_oct

        lines = ["identity"]
        members_json = ["identity"]
        for mem in rtc.members:
            if isinstance(mem, Octagon):
                s = render_octagon(mem, names + [v + "'" for v in names])
            else:
                lr = member_from_param_oct(mem, tuple(names))
                s = render_member(lr, names)
            lines.append(s)
            members_json.append(s)
        payload = {"status": "ok", "exact": rtc.exact, "members": members_json}
        _emit(args, payload, "\n".join(lines))
        return EXIT_OK if rtc.exact else EXIT_BUDGET
    if args.subcommand == "power":
        p = fast_power(rel, args.n, n)
        out = render_octagon(p, names + [v + "'" for v in names])
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
    import os

    if os.path.exists(arg):
        with open(arg, "r", encoding="utf-8") as fh:
            return fh.read()
    return arg


def cmd_affine(args) -> int:
    text = _read_input(args.input)
    try:
        variables = _collect_vars(text)
        disjuncts = parse_formula(text, variables)
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_PARSE
    rels = []
    for d in disjuncts:
        if isinstance(d, AffLabel):
            rels.append(d.relation)
        else:
            conv = _octagon_to_affine(d.relation, len(variables))
            if conv is None:
                print("not in fragment: relation is not a deterministic affine update",
                      file=sys.stderr)
                return EXIT_FRAGMENT
            rels.append(conv)
    if len(rels) != 1:
        print("not in fragment: affine analyses need a conjunctive relation",
              file=sys.stderr)
        return EXIT_FRAGMENT
    rel = rels[0]
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
            print("not in fragment: update matrix does not generate a finite monoid",
                  file=sys.stderr)
            return EXIT_FRAGMENT
        dnf = finite_monoid_wnt(rel, list(variables))
        _emit(args, {"wnt": dnf_json(dnf)}, render_dnf_text(dnf))
        return EXIT_OK
    if args.subcommand == "terminate":
        try:
            dnf = sufficient_termination(rel, names=list(variables))
        except NotPolynomiallyBounded:
            print("not in fragment: matrix has an eigenvalue that is neither "
                  "zero nor a root of unity", file=sys.stderr)
            return EXIT_FRAGMENT
        _emit(args, {"sufficient_termination": dnf_json(dnf)}, render_dnf_text(dnf))
        return EXIT_OK
    raise AssertionError(args.subcommand)


def _octagon_to_affine(o: Octagon, n: int) -> AffineRel | None:
    """Deterministic octagonal relations (x' = +-x + c per variable) convert.

    The update rows come from the tight closure, or from the encoded
    relation when its guard is unsatisfiable; the guard is then the empty
    set (the single row 0 >= 1).
    """
    from .affine import mat

    closed = tight_close(o)
    src = o if closed.is_bottom else closed
    if src.is_bottom:
        return None
    rows = src.dbm.rows
    a = []
    b = []
    for i in range(n):
        # x'_i - x_j == c for some j with both bounds finite
        found = None
        pi = 2 * (n + i)
        for j in range(n):
            up = rows[pi][2 * j]
            dn = rows[2 * j][pi]
            if up != INF and dn != INF and up == -dn:
                found = (j, 1, up)
                break
            up2 = rows[pi][2 * j + 1]
            dn2 = rows[2 * j + 1][pi]
            if up2 != INF and dn2 != INF and up2 == -dn2:
                found = (j, -1, up2)
                break
        if found is None:
            return None
        j, s, c = found
        row = [0] * n
        row[j] = s
        a.append(tuple(row))
        b.append(c)
    if closed.is_bottom:
        return AffineRel(n, mat(a), tuple(b), (((0,) * n, 1),))
    guard = []
    proj = oct_exists(closed, range(n, 2 * n))
    for si, i, sj, j, c in oct_decode(proj):
        gr = [0] * n
        gr[i] -= si
        gr[j] -= sj
        guard.append((tuple(gr), -c))
    return AffineRel(n, mat(a), tuple(b), tuple(guard))


def cmd_prog(args) -> int:
    text = _read_input(args.input)
    try:
        program = parse_program(text)
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except FragmentError as e:
        print(f"not in fragment: {e}", file=sys.stderr)
        return EXIT_FRAGMENT
    budgets = Budgets(args.max_prefix, args.max_period, args.max_disjuncts)
    names = list(program.variables)
    if args.subcommand == "flat":
        res = is_flat(program)
        flat = isinstance(res, Flat)
        payload = {"flat": flat}
        if not flat:
            payload["reason"] = res.reason
        _emit(args, payload, "flat" if flat else f"not flat: {res.reason}")
        return EXIT_OK
    if args.subcommand == "summary":
        members, exact = transitive_relation(
            program, args.source, args.target, budgets
        )
        lines = [render_member(m, names) for m in members]
        payload = {
            "status": "ok",
            "exact": exact,
            "members": lines,
        }
        _emit(args, payload, "\n".join(lines) if lines else "false")
        return EXIT_OK if exact else EXIT_BUDGET
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


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="octoterm",
        description="Conditional termination analysis for integer loops and programs",
    )
    ap.add_argument("--format", choices=("text", "json"), default="text")
    ap.add_argument("--max-prefix", type=int, default=64,
                    help="periodicity detection prefix budget")
    ap.add_argument("--max-period", type=int, default=64,
                    help="periodicity detection period budget")
    ap.add_argument("--max-disjuncts", type=int, default=256,
                    help="summary disjunct cap before hull-merge")
    sub = ap.add_subparsers(dest="command", required=True)

    rel = sub.add_parser("rel", help="analyze one octagonal relation")
    rel_sub = rel.add_subparsers(dest="subcommand", required=True)
    for name, needs_n in (("wnt", False), ("rank", False), ("closure", False),
                          ("power", True), ("pre", True)):
        sp = rel_sub.add_parser(name)
        sp.add_argument("relation")
        if needs_n:
            sp.add_argument("n", type=int)
        if name == "wnt":
            sp.add_argument("--box", type=int, default=0,
                            help="cross-check wnt against the box oracle")
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
