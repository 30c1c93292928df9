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

with ``#`` or ``//`` line comments.  A text is lexed in one pass of one
pattern into token texts and offsets (``_tokenize``); a line and column
are computed from an offset only when a ``ParseError`` is built.  A
formula is parsed once, straight into its DNF: a list of disjuncts, each
a list of rows ``(t, rel)`` read ``t <= 0``, ``t == 0`` or, for
``rel == "%m"``, ``m | t`` (``parse_rows``).  Each atom adds the signed
coefficients of both sides into one dict and builds each of its rows
from it once.
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


# One pattern lexes a whole text.  Each match skips blanks, then reads a
# comment, a token, a bad token (any other non-blank character) or the end
# of the text, so no blank is tried as the start of a match.  A comment runs
# to the end of its line, and a line ends wherever ``str.splitlines`` ends one.
_TOKEN_RE = re.compile(
    r"\s*(?:(?:#|//)[^\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]*"
    r"|(\d+|[A-Za-z_][A-Za-z_0-9]*'?|<=|>=|==|!=|->|&&|\|\||[-+*<>(),;:%])"
    r"|(\S)|\Z)"
)
_NAME_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_COMPARE = frozenset(("<=", ">=", "<", ">", "==", "!="))


def _where(text: str, offset: int) -> tuple[int, int]:
    """Line and column (from 1) of ``text[offset]``."""
    lines = (text[:offset] + "_").splitlines()
    return len(lines), len(lines[-1])


def _tokenize(text: str) -> tuple[list[str], list[int]]:
    """Token texts and their offsets, then the sentinel ``""`` at the end
    of the last token (offset 0 when there is none)."""
    texts = []
    offsets = []
    add_text, add_offset = texts.append, offsets.append
    bad = None
    for m in _TOKEN_RE.finditer(text):
        k = m.lastindex
        if k == 1:
            add_text(m[1])
            add_offset(m.start(1))
        elif k == 2:
            bad = m.start(2)
            break
    end = offsets[-1] + len(texts[-1]) if texts else 0
    if bad is not None:
        # reported from the end of the last token on its line (else from the
        # line's start), up to a comment
        _, col = _where(text, bad)
        at = max(bad - col + 1, end)
        body = re.split(r"#|//", text[at:].splitlines()[0], maxsplit=1)[0]
        raise ParseError(f"bad token {body.strip()[:10]!r}", *_where(text, at))
    texts.append("")
    offsets.append(end)
    return texts, offsets


Row = tuple[LinTerm, str]


class _Parser:
    """Recursive descent over the token texts; ``toks[i] == ""`` at the end."""

    def __init__(self, text: str, variables: list[str]):
        self.text = text
        self.toks, self.offsets = _tokenize(text)
        self.i = 0
        self.vars = variables

    def error(self, message: str, at: int | None = None) -> ParseError:
        """The error at token ``at`` (by default the current one)."""
        return ParseError(message, *_where(self.text, self.offsets[self.i if at is None else at]))

    def take(self, text: str) -> None:
        tok = self.toks[self.i]
        if tok != text:
            raise self.error(f"expected {text!r}, found {tok!r}" if tok
                             else f"unexpected end of input (wanted {text})")
        self.i += 1

    def take_kind(self, kind: str) -> str:
        """The current token, which must be a name or an int."""
        tok = self.toks[self.i]
        if not tok:
            raise self.error(f"unexpected end of input (wanted {kind})")
        ok = tok[0] in _NAME_START if kind == "name" else tok[0].isdecimal()
        if not ok:
            raise self.error(f"expected {kind}, found {tok!r}")
        self.i += 1
        return tok

    def finish(self) -> None:
        tok = self.toks[self.i]
        if tok:
            raise self.error(f"trailing input {tok!r}")

    # -- formulas -----------------------------------------------------------

    def formula(self) -> list[list[Row]]:
        """The formula's DNF, disjuncts in the order the text distributes."""
        dnf = self.conjunction()
        while self.toks[self.i] == "||":
            self.i += 1
            dnf += self.conjunction()
        return dnf

    def conjunction(self) -> list[list[Row]]:
        dnf = self.atom_or_group()
        while self.toks[self.i] == "&&":
            self.i += 1
            right = self.atom_or_group()
            dnf = [a + b for a in dnf for b in right]
        return dnf

    def atom_or_group(self) -> list[list[Row]]:
        tok = self.toks[self.i]
        if not tok:
            raise self.error("unexpected end of formula")
        if tok == "(":
            # could be a parenthesized formula; try it
            save = self.i
            self.i += 1
            try:
                dnf = self.formula()
                self.take(")")
                return dnf
            except ParseError:
                self.i = save
        if tok == "id":
            return [self.id_macro()]
        if tok == "true" or tok == "false":
            self.i += 1
            return [[] if tok == "true" else [(LinTerm({}, 1), LE)]]
        return self.atom()

    def id_macro(self) -> list[Row]:
        self.take("id")
        self.take("(")
        rows = []
        while True:
            name = self.take_kind("name")
            self._check_var(name, self.i - 1)
            rows.append((LinTerm({name + "'": 1, name: -1}), EQ))
            if self.toks[self.i] != ",":
                break
            self.i += 1
        self.take(")")
        return rows

    def atom(self) -> list[list[Row]]:
        """One comparison or divisibility atom; each of its rows is built
        once, from the coefficients of lhs - rhs."""
        coeffs: dict[str, int] = {}
        const = self.expr(coeffs, 1)
        op = self.toks[self.i]
        if op == "%":
            # divisibility atom: <expr> % m == r
            self.i += 1
            m = int(self.take_kind("int"))
            self.take("==")
            r = int(self.take_kind("int"))
            return [[(LinTerm(coeffs, const - r), f"%{m}")]]
        if op not in _COMPARE:
            raise self.error("expected comparison operator")
        self.i += 1
        const += self.expr(coeffs, -1)
        if self.toks[self.i] == "%":
            raise self.error("'%' only allowed as '<expr> % m == r'")
        if op == "<=":
            return [[(LinTerm(coeffs, const), LE)]]
        if op == "==":
            return [[(LinTerm(coeffs, const), EQ)]]
        if op == "<":
            return [[(LinTerm(coeffs, const + 1), LE)]]
        neg = {v: -c for v, c in coeffs.items()}
        if op == ">=":
            return [[(LinTerm(neg, -const), LE)]]
        if op == ">":
            return [[(LinTerm(neg, 1 - const), LE)]]
        # over the integers: d <= -1 or d >= 1
        return [[(LinTerm(coeffs, const + 1), LE)], [(LinTerm(neg, 1 - const), LE)]]

    def expr(self, coeffs: dict[str, int], sign: int) -> int:
        """Add ``sign`` times the expression's coefficients into ``coeffs``
        and return ``sign`` times its constant."""
        const = self.signed_term(coeffs, sign)
        toks = self.toks
        while True:
            tok = toks[self.i]
            if tok == "+":
                self.i += 1
                const += self.signed_term(coeffs, sign)
            elif tok == "-":
                self.i += 1
                const += self.signed_term(coeffs, -sign)
            else:
                return const

    def signed_term(self, coeffs: dict[str, int], sign: int) -> int:
        toks = self.toks
        tok = toks[self.i]
        while tok == "-" or tok == "+":
            if tok == "-":
                sign = -sign
            self.i += 1
            tok = toks[self.i]
        if not tok:
            raise self.error("unexpected end of expression")
        at = self.i
        self.i += 1
        if tok[0] in _NAME_START:
            self._check_var(tok, at)
            coeffs[tok] = coeffs.get(tok, 0) + sign
            return 0
        if tok[0].isdecimal():
            value = sign * int(tok)
            if toks[self.i] == "*":
                self.i += 1
                name = self.take_kind("name")
                self._check_var(name, at)
            elif toks[self.i][:1] in _NAME_START:
                # juxtaposition: 2x
                name = toks[self.i]
                self.i += 1
                self._check_var(name, self.i - 1)
            else:
                return value
            coeffs[name] = coeffs.get(name, 0) + value
            return 0
        if tok == "(":
            const = self.expr(coeffs, sign)
            self.take(")")
            return const
        raise self.error(f"unexpected token {tok!r}", at)

    def _check_var(self, name: str, at: int) -> None:
        """Token ``at`` names ``name``, which must be a declared variable."""
        base = name[:-1] if name.endswith("'") else name
        if base not in self.vars or base.startswith("_"):
            self._check_reserved(base, at)
            raise self.error(f"undeclared variable {base!r}", at)

    def _check_reserved(self, name: str, at: int) -> None:
        """Names starting with '_' are the analyses' own (parameters _p0,
        _p1, ..., midpoints, split variables); a program variable may not
        take one."""
        if name.startswith("_"):
            raise self.error(f"variable {name!r} starts with '_', which is reserved", at)


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
    """Lex and parse a formula into its DNF: one list of rows per
    disjunct."""
    p = _Parser(text, variables)
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


class Transition(NamedTuple):
    source: str
    target: str
    label: tuple[Disjunct, ...]


class Program(NamedTuple):
    variables: tuple[str, ...]
    states: tuple[str, ...]  # by first mention; init last when no edge names it
    init: str
    transitions: tuple[Transition, ...]


def parse_program_text(text: str) -> Program:
    """The program of a file: its declarations and classified labels.

    Every formula is parsed from the file's own tokens, so an error in it
    reports its line and column in the file.
    """
    p = _Parser(text, [])

    def declare() -> None:
        name = p.take_kind("name")
        p._check_reserved(name, p.i - 1)
        p.vars.append(name)

    p.take("vars")
    declare()
    while p.toks[p.i] == ",":
        p.i += 1
        declare()
    p.take(";")
    p.take("init")
    init = p.take_kind("name")
    p.take(";")
    states = {}
    transitions = []
    while p.toks[p.i]:
        src = p.take_kind("name")
        p.take("->")
        dst = p.take_kind("name")
        p.take(":")
        label = tuple(_classify(rows, p.vars) for rows in p.formula())
        p.take(";")
        states[src] = states[dst] = None
        transitions.append(Transition(src, dst, label))
    states[init] = None
    return Program(tuple(p.vars), tuple(states), init, tuple(transitions))
