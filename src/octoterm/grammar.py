"""Textual grammar for relations and programs.

Formulas are boolean combinations (&&, ||, parentheses) of linear atoms

    <expr> <= <expr> | < | >= | > | == | !=

over integer variables; ``x'`` is the primed copy of ``x`` and ``id(a, b)``
abbreviates ``a' == a && b' == b``.  Variable names may not start with
``_``, which the analyses reserve for their own names.  Strict
comparisons and ``!=`` are normalized away over the integers at parse
time.  A program file is

    vars x, y;
    init l1;
    l1 -> l2 : <formula>;

with ``#`` or ``//`` line comments.  Each disjunct of a parsed formula is
classified as an octagonal relation when every atom fits ``+-u +-v <= c``
and as a deterministic affine update with linear guard otherwise; labels
outside both fragments are rejected.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .linarith import EQ, LE, LinTerm
from .octagon import Octagon, bottom, oct_encode
from .affine import AffineRel, mat


class ParseError(ValueError):
    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        loc = f" at line {line}, column {col}" if line is not None else ""
        super().__init__(message + loc)
        self.line = line
        self.col = col


class FragmentError(ValueError):
    """Formula parses but is neither octagonal nor affine."""


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*'?)"
    r"|(?P<op><=|>=|==|!=|->|&&|\|\||[-+*<>(),;:%]))"
)


@dataclass(frozen=True)
class _Tok:
    kind: str
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Tok]:
    out = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = re.split(r"#|//", line, maxsplit=1)[0]
        pos = 0
        while pos < len(body):
            m = _TOKEN_RE.match(body, pos)
            if m is None or m.end() == pos:
                if body[pos:].strip():
                    raise ParseError(f"bad token {body[pos:].strip()[:10]!r}", lineno, pos + 1)
                break
            pos = m.end()
            for kind in ("int", "name", "op"):
                if m.group(kind) is not None:
                    out.append(_Tok(kind, m.group(kind), lineno, m.start(kind) + 1))
                    break
    return out


# formula AST: ("atom", rows) | ("and", a, b) | ("or", a, b)


class _Parser:
    def __init__(self, toks: list[_Tok], variables: list[str]):
        self.toks = toks
        self.i = 0
        self.vars = variables

    def peek(self) -> _Tok | None:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def take(self, text: str | None = None, kind: str | None = None) -> _Tok:
        t = self.peek()
        if t is None:
            raise ParseError(f"unexpected end of input (wanted {text or kind})")
        if text is not None and t.text != text:
            raise ParseError(f"expected {text!r}, found {t.text!r}", t.line, t.col)
        if kind is not None and t.kind != kind:
            raise ParseError(f"expected {kind}, found {t.text!r}", t.line, t.col)
        self.i += 1
        return t

    def at_op(self, text: str) -> bool:
        t = self.peek()
        return t is not None and t.kind == "op" and t.text == text

    # -- formulas -----------------------------------------------------------

    def formula(self):
        node = self.conjunction()
        while self.at_op("||"):
            self.take("||")
            node = ("or", node, self.conjunction())
        return node

    def conjunction(self):
        node = self.atom_or_group()
        while self.at_op("&&"):
            self.take("&&")
            node = ("and", node, self.atom_or_group())
        return node

    def atom_or_group(self):
        t = self.peek()
        if t is None:
            raise ParseError("unexpected end of formula")
        if self.at_op("("):
            # could be a parenthesized formula; try it
            save = self.i
            self.take("(")
            try:
                node = self.formula()
                self.take(")")
                return node
            except ParseError:
                self.i = save
        if t.kind == "name" and t.text == "id":
            return self.id_macro()
        if t.kind == "name" and t.text in ("true", "false"):
            self.take()
            if t.text == "true":
                return ("atom", [])
            return ("atom", [(LinTerm({}, 1), LE)])
        return self.atom()

    def id_macro(self):
        self.take("id")
        self.take("(")
        rows = []
        while True:
            tok = self.take(kind="name")
            name = tok.text
            self._check_var(name, tok)
            rows.append((LinTerm({name + "'": 1, name: -1}), EQ))
            if self.at_op(","):
                self.take(",")
                continue
            break
        self.take(")")
        return ("atom", rows)

    def atom(self):
        lhs = self.expr()
        if self.at_op("%"):
            # divisibility atom: <expr> % m == r
            self.take("%")
            m = int(self.take(kind="int").text)
            self.take("==")
            r = int(self.take(kind="int").text)
            return ("atom", [(lhs - r, f"%{m}")])
        t = self.peek()
        if t is None or t.kind != "op" or t.text not in ("<=", ">=", "<", ">", "==", "!="):
            raise ParseError("expected comparison operator",
                             t.line if t else None, t.col if t else None)
        op = self.take().text
        rhs = self.expr()
        d = lhs - rhs
        if self.at_op("%"):
            raise ParseError("'%' only allowed as '<expr> % m == r'")
        if op == "<=":
            return ("atom", [(d, LE)])
        if op == ">=":
            return ("atom", [(-d, LE)])
        if op == "<":
            return ("atom", [(d + 1, LE)])
        if op == ">":
            return ("atom", [(-d + 1, LE)])
        if op == "==":
            return ("atom", [(d, EQ)])
        # over the integers: d <= -1 or d >= 1
        return ("or", ("atom", [(d + 1, LE)]), ("atom", [(-d + 1, LE)]))

    def datom_rows(self, m: int, t: LinTerm):
        return ("atom", [(t, f"%{m}")])

    def expr(self) -> LinTerm:
        term = self.signed_term()
        while True:
            if self.at_op("+"):
                self.take("+")
                term = term + self.signed_term()
            elif self.at_op("-"):
                self.take("-")
                term = term - self.signed_term()
            else:
                return term

    def signed_term(self) -> LinTerm:
        sign = 1
        while self.at_op("-") or self.at_op("+"):
            if self.take().text == "-":
                sign = -sign
        t = self.peek()
        if t is None:
            raise ParseError("unexpected end of expression")
        if t.kind == "int":
            self.take()
            value = int(t.text)
            if self.at_op("*"):
                self.take("*")
                name = self.take(kind="name").text
                self._check_var(name, t)
                return LinTerm({name: sign * value})
            # juxtaposition: 2x
            nt = self.peek()
            if nt is not None and nt.kind == "name":
                self.take()
                self._check_var(nt.text, nt)
                return LinTerm({nt.text: sign * value})
            return LinTerm({}, sign * value)
        if t.kind == "name":
            self.take()
            self._check_var(t.text, t)
            return LinTerm({t.text: sign})
        if self.at_op("("):
            self.take("(")
            inner = self.expr()
            self.take(")")
            return sign * inner
        raise ParseError(f"unexpected token {t.text!r}", t.line, t.col)

    def _check_var(self, name: str, tok: _Tok) -> None:
        base = name[:-1] if name.endswith("'") else name
        _check_reserved(base, tok)
        if base not in self.vars:
            raise ParseError(f"undeclared variable {base!r}", tok.line, tok.col)


def _check_reserved(name: str, tok: _Tok) -> None:
    """Names starting with '_' are the analyses' own (parameters _p0, _p1,
    ..., midpoints, split variables); a program variable may not take one."""
    if name.startswith("_"):
        raise ParseError(
            f"variable {name!r} starts with '_', which is reserved", tok.line, tok.col
        )


def _dnf(node) -> list[list[tuple[LinTerm, str]]]:
    if node[0] == "atom":
        return [list(node[1])]
    if node[0] == "or":
        return _dnf(node[1]) + _dnf(node[2])
    left = _dnf(node[1])
    right = _dnf(node[2])
    return [a + b for a in left for b in right]


# -- classification ---------------------------------------------------------


@dataclass(frozen=True)
class OctLabel:
    relation: Octagon


@dataclass(frozen=True)
class AffLabel:
    relation: AffineRel


Disjunct = OctLabel | AffLabel


def _as_octagon(rows, variables: list[str]) -> Octagon | None:
    n = len(variables)
    index = {v: i for i, v in enumerate(variables)}
    index.update({v + "'": n + i for i, v in enumerate(variables)})
    atoms = []
    empty = False
    for t, rel in rows:
        if rel.startswith("%"):
            return None
        pairs = [(t, LE)] if rel == LE else [(t, LE), (-t, LE)]
        for tt, _ in pairs:
            entries = [(v, c) for v, c in tt.coeffs.items()]
            if tt.const.denominator != 1 or any(c.denominator != 1 for _, c in entries):
                return None
            c0 = -tt.const.numerator
            if len(entries) == 0:
                empty = empty or c0 < 0  # an unsatisfiable constant row
                continue
            if len(entries) == 1:
                v, c = entries[0]
                c = c.numerator
                if c in (1, -1):
                    si = 1 if c == 1 else -1
                    atoms.append((si, index[v], si, index[v], 2 * c0))
                elif c in (2, -2):
                    si = 1 if c == 2 else -1
                    atoms.append((si, index[v], si, index[v], c0))
                else:
                    return None
            elif len(entries) == 2:
                (v1, c1), (v2, c2) = entries
                c1, c2 = c1.numerator, c2.numerator
                if abs(c1) != 1 or abs(c2) != 1:
                    return None
                atoms.append((c1, index[v1], c2, index[v2], c0))
            else:
                return None
    if empty and not atoms:
        return bottom(2 * n)
    o = oct_encode(atoms, 2 * n)
    if empty:
        # keep the other atoms (the update rows) readable and mark the guard
        # empty: a negative diagonal entry makes every closure bottom
        o.dbm.rows[0][0] = -1
    return o


def _as_affine(rows, variables: list[str]) -> AffineRel | None:
    n = len(variables)
    updates: dict[str, LinTerm] = {}
    guard_rows = []
    for t, rel in rows:
        if rel.startswith("%"):
            return None
        primed = [v for v in t.coeffs if v.endswith("'")]
        if not primed:
            if rel == EQ:
                guard_rows.append((t, LE))
                guard_rows.append((-t, LE))
            else:
                guard_rows.append((t, LE))
            continue
        if rel != EQ or len(primed) != 1:
            return None
        p = primed[0]
        c = t.coef(p)
        if abs(c) != 1:
            return None
        rest = (t - LinTerm({p: c})) * (-1 / c)
        base = p[:-1]
        if base in updates:
            return None
        updates[base] = rest
    if set(updates) != set(variables):
        return None
    a = []
    b = []
    for v in variables:
        u = updates[v]
        if u.const.denominator != 1:
            return None
        row = []
        for w in variables:
            cw = u.coef(w)
            if cw.denominator != 1:
                return None
            row.append(cw.numerator)
        if any(w.endswith("'") for w in u.coeffs):
            return None
        a.append(tuple(row))
        b.append(u.const.numerator)
    guard = []
    for t, _ in guard_rows:
        # t <= 0  <=>  (-coeffs).x >= const
        if t.const.denominator != 1 or any(c.denominator != 1 for c in t.coeffs.values()):
            return None
        c_row = tuple(-t.coef(v).numerator for v in variables)
        guard.append((c_row, t.const.numerator))
    return AffineRel(n, mat(a), tuple(b), tuple(guard))


def parse_formula(text: str, variables: list[str]) -> list[Disjunct]:
    """Parse into a DNF of octagonal / affine disjuncts.

    Unmentioned primed variables are unconstrained (havoc) in octagonal
    disjuncts; affine disjuncts must update every variable.
    """
    p = _Parser(_tokenize(text), variables)
    node = p.formula()
    if p.peek() is not None:
        t = p.peek()
        raise ParseError(f"trailing input {t.text!r}", t.line, t.col)
    out: list[Disjunct] = []
    for rows in _dnf(node):
        o = _as_octagon(rows, variables)
        if o is not None:
            out.append(OctLabel(o))
            continue
        a = _as_affine(rows, variables)
        if a is not None:
            out.append(AffLabel(a))
            continue
        raise FragmentError(
            "disjunct is neither octagonal nor a deterministic affine update: "
            + "; ".join(f"{t} {rel} 0" for t, rel in rows)
        )
    return out


def parse_condition(text: str, variables: list[str]):
    """Parse a state formula into DNF of (rows, divisibility) pairs.

    Unlike transition labels, conditions admit arbitrary linear atoms and
    divisibility atoms ``expr % m == r``.
    """
    p = _Parser(_tokenize(text), variables)
    node = p.formula()
    if p.peek() is not None:
        t = p.peek()
        raise ParseError(f"trailing input {t.text!r}", t.line, t.col)
    out = []
    for rows in _dnf(node):
        plain = []
        divs = []
        for t, rel in rows:
            if rel.startswith("%"):
                divs.append((int(rel[1:]), t))
            else:
                plain.append((t, rel))
        out.append((plain, divs))
    return out


@dataclass(frozen=True)
class ProgramText:
    variables: tuple[str, ...]
    init: str
    transitions: tuple[tuple[str, str, str], ...]  # (src, dst, formula text)


def parse_program_text(text: str) -> ProgramText:
    """Split a program file into declarations and raw transition formulas."""
    toks = _tokenize(text)
    i = 0

    def take(expect: str | None = None, kind: str | None = None) -> _Tok:
        nonlocal i
        if i >= len(toks):
            raise ParseError(f"unexpected end of program (wanted {expect or kind})")
        t = toks[i]
        if expect is not None and t.text != expect:
            raise ParseError(f"expected {expect!r}, found {t.text!r}", t.line, t.col)
        if kind is not None and t.kind != kind:
            raise ParseError(f"expected {kind}, found {t.text!r}", t.line, t.col)
        i += 1
        return t

    def declare() -> str:
        t = take(kind="name")
        _check_reserved(t.text, t)
        return t.text

    take("vars")
    variables = [declare()]
    while toks[i].text == ",":
        take(",")
        variables.append(declare())
    take(";")
    take("init")
    init = take(kind="name").text
    take(";")
    transitions = []
    while i < len(toks):
        src = take(kind="name").text
        take("->")
        dst = take(kind="name").text
        take(":")
        start = i
        depth = 0
        while i < len(toks) and not (toks[i].text == ";" and depth == 0):
            if toks[i].text == "(":
                depth += 1
            elif toks[i].text == ")":
                depth -= 1
            i += 1
        if i >= len(toks):
            t = toks[start - 1]
            raise ParseError("transition formula not terminated by ';'", t.line, t.col)
        formula = _untokenize(toks[start:i])
        take(";")
        transitions.append((src, dst, formula))
    return ProgramText(tuple(variables), init, tuple(transitions))


def _untokenize(toks: list[_Tok]) -> str:
    return " ".join(t.text for t in toks)
