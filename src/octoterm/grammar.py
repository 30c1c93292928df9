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

with ``#`` or ``//`` line comments.  A formula is parsed once, straight
into its DNF: a list of disjuncts, each a list of rows ``(t, rel)`` read
``t <= 0``, ``t == 0`` or, for ``rel == "%m"``, ``m | t`` (``parse_rows``).
Each disjunct of a label is classified once (``_classify``): as an
octagonal relation when every row fits ``+-u +-v <= c``, else as a
deterministic affine update with linear guard (``as_affine``); labels
outside both fragments are rejected.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .linarith import EQ, LE, LinTerm
from .octagon import Octagon, bottom, oct_encode, rows_to_atoms
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


class _Tok(NamedTuple):
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


Row = tuple[LinTerm, str]


class _Parser:
    def __init__(self, toks: list[_Tok], variables: list[str]):
        self.toks = toks
        self.i = 0
        self.vars = variables

    def peek(self) -> _Tok | None:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def where(self, t: _Tok | None) -> tuple[int, int]:
        """Line and column of t; for t None (the input ended), just past the
        last token, or line 1, column 1 when there is none."""
        if t is not None:
            return t.line, t.col
        if not self.toks:
            return 1, 1
        last = self.toks[-1]
        return last.line, last.col + len(last.text)

    def take(self, text: str | None = None, kind: str | None = None) -> _Tok:
        t = self.peek()
        if t is None:
            raise ParseError(f"unexpected end of input (wanted {text or kind})",
                             *self.where(None))
        if text is not None and t.text != text:
            raise ParseError(f"expected {text!r}, found {t.text!r}", t.line, t.col)
        if kind is not None and t.kind != kind:
            raise ParseError(f"expected {kind}, found {t.text!r}", t.line, t.col)
        self.i += 1
        return t

    def finish(self) -> None:
        t = self.peek()
        if t is not None:
            raise ParseError(f"trailing input {t.text!r}", t.line, t.col)

    def at_op(self, text: str) -> bool:
        t = self.peek()
        return t is not None and t.kind == "op" and t.text == text

    # -- formulas -----------------------------------------------------------

    def formula(self) -> list[list[Row]]:
        """The formula's DNF, disjuncts in the order the text distributes."""
        dnf = self.conjunction()
        while self.at_op("||"):
            self.take("||")
            dnf = dnf + self.conjunction()
        return dnf

    def conjunction(self) -> list[list[Row]]:
        dnf = self.atom_or_group()
        while self.at_op("&&"):
            self.take("&&")
            right = self.atom_or_group()
            dnf = [a + b for a in dnf for b in right]
        return dnf

    def atom_or_group(self) -> list[list[Row]]:
        t = self.peek()
        if t is None:
            raise ParseError("unexpected end of formula", *self.where(None))
        if self.at_op("("):
            # could be a parenthesized formula; try it
            save = self.i
            self.take("(")
            try:
                dnf = self.formula()
                self.take(")")
                return dnf
            except ParseError:
                self.i = save
        if t.kind == "name" and t.text == "id":
            return [self.id_macro()]
        if t.kind == "name" and t.text in ("true", "false"):
            self.take()
            return [[] if t.text == "true" else [(LinTerm({}, 1), LE)]]
        return self.atom()

    def id_macro(self) -> list[Row]:
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
        return rows

    def atom(self) -> list[list[Row]]:
        lhs = self.expr()
        if self.at_op("%"):
            # divisibility atom: <expr> % m == r
            self.take("%")
            m = int(self.take(kind="int").text)
            self.take("==")
            r = int(self.take(kind="int").text)
            return [[(lhs - r, f"%{m}")]]
        t = self.peek()
        if t is None or t.kind != "op" or t.text not in ("<=", ">=", "<", ">", "==", "!="):
            raise ParseError("expected comparison operator", *self.where(t))
        op = self.take().text
        rhs = self.expr()
        d = lhs - rhs
        if self.at_op("%"):
            raise ParseError("'%' only allowed as '<expr> % m == r'", *self.where(self.peek()))
        if op == "<=":
            return [[(d, LE)]]
        if op == ">=":
            return [[(-d, LE)]]
        if op == "<":
            return [[(d + 1, LE)]]
        if op == ">":
            return [[(-d + 1, LE)]]
        if op == "==":
            return [[(d, EQ)]]
        # over the integers: d <= -1 or d >= 1
        return [[(d + 1, LE)], [(-d + 1, LE)]]

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
            raise ParseError("unexpected end of expression", *self.where(None))
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


# -- classification ---------------------------------------------------------


Disjunct = Octagon | AffineRel


def _as_octagon(rows: list[Row], variables: list[str]) -> Octagon | None:
    n = len(variables)
    index = {v: i for i, v in enumerate(variables)}
    index.update({v + "'": n + i for i, v in enumerate(variables)})
    varying = []
    empty = False
    for t, rel in rows:
        if rel.startswith("%"):
            return None
        if t.is_constant():
            # an unsatisfiable constant row
            empty = empty or (t.const > 0 if rel == LE else t.const != 0)
        else:
            varying.append((t, rel))
    atoms = rows_to_atoms(varying, index)
    if atoms is None:
        return None
    return bottom(2 * n) if empty else oct_encode(atoms, 2 * n)


def as_affine(rows: list[Row], variables: list[str]) -> AffineRel | None:
    """The disjunct as a deterministic affine update with a linear guard,
    or None.  Each variable's update is read as written: a row
    ``x' == e``, ``id(x)``, or two opposite inequalities ``x' <= e`` and
    ``x' >= e``.  The rows without a primed variable make the guard."""
    n = len(variables)
    updates: dict[str, LinTerm] = {}
    guard_rows = []
    bounds = {t for t, rel in rows if rel == LE}
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
        if rel == LE and -t in bounds:
            rel = EQ
        if rel != EQ or len(primed) != 1:
            return None
        p = primed[0]
        c = t.coef(p)
        if abs(c) != 1:
            return None
        rest = (t - LinTerm({p: c})) * -c
        if updates.setdefault(p[:-1], rest) != rest:
            return None
    if set(updates) != set(variables):
        return None
    a = []
    b = []
    for v in variables:
        u = updates[v]
        if any(w.endswith("'") for w in u.coeffs):
            return None
        a.append(tuple(u.coef(w) for w in variables))
        b.append(u.const)
    guard = []
    for t, _ in guard_rows:
        # t <= 0  <=>  (-coeffs).x >= const
        guard.append((tuple(-t.coef(v) for v in variables), t.const))
    return AffineRel(n, mat(a), tuple(b), tuple(guard))


def _classify(rows: list[Row], variables: list[str]) -> Disjunct:
    """The disjunct as an octagonal relation, else as an affine update."""
    d = _as_octagon(rows, variables)
    if d is None:
        d = as_affine(rows, variables)
    if d is None:
        raise FragmentError(
            "disjunct is neither octagonal nor a deterministic affine update: "
            + "; ".join(div_str(t, int(rel[1:])) if rel.startswith("%") else row_str(t, rel)
                        for t, rel in rows)
        )
    return d


def parse_rows(text: str, variables: list[str]) -> list[list[Row]]:
    """Tokenize and parse a formula into its DNF: one list of rows per
    disjunct."""
    p = _Parser(_tokenize(text), variables)
    dnf = p.formula()
    p.finish()
    return dnf


def parse_formula(text: str, variables: list[str]) -> list[Disjunct]:
    """Parse into a DNF of octagonal / affine disjuncts.

    Unmentioned primed variables are unconstrained (havoc) in octagonal
    disjuncts; affine disjuncts must update every variable.
    """
    return [_classify(rows, variables) for rows in parse_rows(text, variables)]


def _coef_str(c: int, v: str) -> str:
    if c == 1:
        return v
    if c == -1:
        return f"-{v}"
    return f"{c}*{v}"


def terms_str(t: LinTerm) -> str:
    """The variable part of a term, by name, with signed coefficients."""
    out = ""
    for i, (v, c) in enumerate(sorted(t.coeffs.items())):
        c = int(c)
        if i == 0:
            out = _coef_str(c, v)
        elif c >= 0:
            out += f" + {_coef_str(c, v)}"
        else:
            out += f" - {_coef_str(-c, v)}"
    return out


def row_str(t: LinTerm, rel: str) -> str:
    """The row ``t rel 0`` in the grammar, as ``terms <= c`` or ``terms == c``."""
    op = "<=" if rel == LE else "=="
    return f"{terms_str(t)} {op} {int(-t.const)}"


def div_str(t: LinTerm, modulus: int) -> str:
    """The divisibility atom ``modulus | t`` in the grammar."""
    r = int((-t.const) % modulus)
    return f"{terms_str(t)} % {modulus} == {r}"


def parse_condition(text: str, variables: list[str]):
    """Parse a state formula into DNF of (rows, divisibility) pairs.

    Unlike transition labels, conditions admit arbitrary linear atoms and
    divisibility atoms ``expr % m == r``.
    """
    out = []
    for rows in parse_rows(text, variables):
        plain = [(t, rel) for t, rel in rows if not rel.startswith("%")]
        divs = [(int(rel[1:]), t) for t, rel in rows if rel.startswith("%")]
        out.append((plain, divs))
    return out


class ProgramText(NamedTuple):
    variables: tuple[str, ...]
    init: str
    transitions: tuple[tuple[str, str, tuple[Disjunct, ...]], ...]  # (src, dst, label)


def parse_program_text(text: str) -> ProgramText:
    """Split a program file into declarations and parsed transition labels.

    Every formula is parsed from the file's own tokens, so an error in it
    reports its line and column in the file.
    """
    p = _Parser(_tokenize(text), [])

    def declare() -> None:
        t = p.take(kind="name")
        _check_reserved(t.text, t)
        p.vars.append(t.text)

    p.take("vars")
    declare()
    while p.at_op(","):
        p.take(",")
        declare()
    p.take(";")
    p.take("init")
    init = p.take(kind="name").text
    p.take(";")
    transitions = []
    while p.peek() is not None:
        src = p.take(kind="name").text
        p.take("->")
        dst = p.take(kind="name").text
        p.take(":")
        label = tuple(_classify(rows, p.vars) for rows in p.formula())
        p.take(";")
        transitions.append((src, dst, label))
    return ProgramText(tuple(p.vars), init, tuple(transitions))
