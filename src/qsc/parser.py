"""Parser for the ``.qsc`` proof-script format.

A script declares its atoms, then one or more theorems as flat numbered
steps; each step states a sequent and either marks itself as a hypothesis
(``premise``) or names the rule and the earlier steps it is inferred from::

    atoms A B
    -- optional commentary to end of line

    theorem ent:
      1: |- Q_B, Q_A                 premise
      2: Q_A |- A^                   premise
      3: |- Q_B, A^                  by cut[Q_A](1, 2)
      ...
    qed

Surface tokens: ``^`` postfix negation (atoms only), ``&`` and ``&{a,b}``
for the plain and degreed conjunction, ``#`` for the multiplicative
disjunction, ``@`` for entanglement, ``0`` for the null proposition,
``Q_X`` and ``Q_X{a,b}`` for qubit propositions, ``|-`` and ``|-{a}`` for
the turnstile, and ``,`` between context formulas.  Degrees are decimal
reals or complexes (``0.6+0.8i``) or the reserved symbols ``alpha`` and
``beta``.  The binary connectives bind as ``syntax.CONNECTIVES`` orders
them, loosest first, each grouping to the left; ``^`` binds tightest, and
parentheses override.
"""

from __future__ import annotations

import cmath
import re
from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, TypeVar

from .kernel import RULES, Derivation, Param
from .syntax import (
    CONNECTIVES,
    And,
    Atom,
    Degree,
    Formula,
    NULL,
    Qubit,
    Sequent,
    SYMBOLIC_NAMES,
    SymDegree,
)

T = TypeVar("T")

KEYWORDS = frozenset({"atoms", "theorem", "qed", "by", "premise"})
# The most tokens one formula may span; this bounds the recursion of the
# parser and of every walk over a formula.
MAX_FORMULA_TOKENS = 256


@dataclass(frozen=True)
class SourceSpan:
    line: int     # 1-based
    column: int   # 1-based
    length: int

    def __str__(self):
        return f"{self.line}:{self.column}"


class ScriptError(Exception):
    """Base for all script-level failures; always carries a source span."""

    def __init__(self, message: str, span: SourceSpan):
        super().__init__(f"{span}: {message}")
        self.message = message
        self.span = span


class ScriptSyntaxError(ScriptError):
    pass


class UnknownAtom(ScriptError):
    pass


class UnknownRule(ScriptError):
    pass


class DanglingReference(ScriptError):
    pass


class DuplicateStepId(ScriptError):
    pass


class UnusedStep(ScriptError):
    pass


# ---------------------------------------------------------------------------
# Lexer

# The first alternative that matches wins; the unnamed ones (blanks and
# comments) make no token, and BAD, last, takes any character no other
# alternative starts with.  Every character is one column wide.
_REAL = r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_TOKEN_RE = re.compile(
    r"(?P<NL>\n)|[ \t\r]+|--[^\n]*"
    r"|(?P<PUNCT>\|-|[,:()\[\]{}&#@^])"
    r"|(?P<IDENT>[A-Za-z_][A-Za-z0-9_']*)"
    rf"|(?P<NUM>[+-]?{_REAL}(?:[+-]{_REAL}i|i)?)"
    r"|(?P<BAD>.)", re.DOTALL)


class Token(NamedTuple):
    """One token; only a PUNCT carries punctuation text, only an IDENT a
    keyword, and only EOF the empty text."""

    kind: str   # IDENT | NUM | PUNCT | EOF
    text: str
    line: int
    column: int

    @property
    def span(self) -> SourceSpan:
        return SourceSpan(self.line, self.column, len(self.text))


def tokenize(text: str) -> List[Token]:
    tokens: List[Token] = []
    append, new = tokens.append, tuple.__new__  # no Python-level call per token
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind is None:
            continue
        if kind == "NL":
            line, line_start = line + 1, m.end()
        elif kind == "BAD":
            raise ScriptSyntaxError(f"unexpected character {m[0]!r}",
                                    SourceSpan(line, m.start() - line_start + 1, 1))
        else:
            append(new(Token, (kind, m[0], line, m.start() - line_start + 1)))
    append(new(Token, ("EOF", "", line, len(text) - line_start + 1)))
    return tokens


def _parse_number(token: Token) -> complex:
    try:
        value = complex(token.text.replace("i", "j"))
    except ValueError:
        raise ScriptSyntaxError(f"bad numeric literal {token.text!r}", token.span)
    if not cmath.isfinite(value):
        raise ScriptSyntaxError(f"numeric literal {token.text!r} is not finite", token.span)
    return value


# ---------------------------------------------------------------------------
# Recursive-descent parser

class _Parser:
    def __init__(self, tokens: List[Token], atoms: Optional[Sequence[str]] = None):
        self.tokens = tokens
        self.pos = 0
        self.start = self.depth = 0  # the outermost formula's first token, open "("s
        self.atoms = set(atoms) if atoms is not None else None

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.text:  # EOF, the only empty text, stays put
            self.pos += 1
        return tok

    # A punctuation mark or keyword is known by its text alone (see Token).

    def at(self, text: str) -> bool:
        return self.tokens[self.pos].text == text

    def expect(self, text: str) -> None:
        tok = self.next()
        if tok.text != text:
            raise ScriptSyntaxError(f"expected {text!r}, found {tok.text or 'end of input'!r}",
                                    tok.span)

    # -- degrees ------------------------------------------------------------

    def parse_degree(self) -> Degree:
        tok = self.next()
        if tok.kind == "NUM":
            return _parse_number(tok)
        if tok.text in SYMBOLIC_NAMES:
            return SymDegree(tok.text)
        raise ScriptSyntaxError(
            f"expected a degree (number, alpha or beta), found {tok.text!r}", tok.span)

    def parse_degree_pair(self) -> Tuple[Degree, Degree]:
        self.expect("{")
        first = self.parse_degree()
        self.expect(",")
        second = self.parse_degree()
        self.expect("}")
        return first, second

    # -- formulas -----------------------------------------------------------

    def starts_formula(self) -> bool:
        tok = self.peek()
        if tok.kind == "IDENT":
            return tok.text not in KEYWORDS
        return tok.text == "0" or tok.text == "("

    def parse_formula(self, level: int = 0) -> Formula:
        """The connectives from ``CONNECTIVES[level]`` on, grouped to the
        left; the operands of the tightest are primaries."""
        if not (level or self.depth):
            self.start = self.pos
        cls, op = CONNECTIVES[level]
        last = level == len(CONNECTIVES) - 1
        left = self.parse_primary() if last else self.parse_formula(level + 1)
        while self.at(op):
            tok = self.next()
            # a & may carry a degree pair, its third field
            degrees = (self.parse_degree_pair(),) if cls is And and self.at("{") else ()
            right = self.parse_primary() if last else self.parse_formula(level + 1)
            try:
                left = cls(left, right, *degrees)
            except ValueError:  # Ent refuses an operand that is not qubit-like
                raise ScriptSyntaxError(
                    "@ relates qubit propositions Q_X (or a collapsed "
                    "literal); parenthesized compounds are not qubits", tok.span) from None
        return left

    def parse_primary(self) -> Formula:
        tok = self.next()
        # the tokens read so far and the ")"s still owed
        if self.pos - self.start + self.depth > MAX_FORMULA_TOKENS:
            raise ScriptSyntaxError(
                f"a formula spans at most {MAX_FORMULA_TOKENS} tokens", tok.span)
        if tok.kind == "NUM":
            if tok.text == "0":
                self._reject_caret("the null proposition")
                return NULL
            raise ScriptSyntaxError(f"unexpected number {tok.text!r} in a formula",
                                    tok.span)
        if tok.text == "(":
            self.depth += 1
            inner = self.parse_formula()
            self.depth -= 1
            self.expect(")")
            self._reject_caret("a parenthesized formula")
            return inner
        if tok.kind == "IDENT":
            if tok.text in KEYWORDS:
                raise ScriptSyntaxError(f"expected a formula, found keyword {tok.text!r}",
                                        tok.span)
            if tok.text.startswith("Q_"):
                name = tok.text[2:]
                if not name:
                    raise ScriptSyntaxError("missing wire name after 'Q_'", tok.span)
                self._check_atom(name, tok)
                degrees = self.parse_degree_pair() if self.at("{") else None
                self._reject_caret("a qubit proposition")
                return Qubit(name, degrees)
            self._check_atom(tok.text, tok)
            negated = False
            if self.at("^"):
                self.next()
                negated = True
                if self.at("^"):
                    raise ScriptSyntaxError(
                        "double negation collapses; write the atom itself",
                        self.peek().span)
            return Atom(tok.text, negated)
        raise ScriptSyntaxError(f"expected a formula, found {tok.text or 'end of input'!r}",
                                tok.span)

    def _reject_caret(self, what: str) -> None:
        if self.at("^"):
            raise ScriptSyntaxError(f"negation applies to atoms only, not {what}",
                                    self.peek().span)

    def _check_atom(self, name: str, tok: Token) -> None:
        if self.atoms is not None and name not in self.atoms:
            raise UnknownAtom(f"atom {name!r} is not declared", tok.span)

    # -- lists and sequents -------------------------------------------------

    def commas(self, item: Callable[[], T]) -> Tuple[T, ...]:
        """``item`` read once, then once more after each ``,``."""
        items = [item()]
        while self.at(","):
            self.next()
            items.append(item())
        return tuple(items)

    def parse_step_number(self) -> int:
        tok = self.next()
        if not tok.text.isdecimal():  # only a NUM can be all digits
            raise ScriptSyntaxError(f"expected a step number, found {tok.text!r}", tok.span)
        return int(tok.text)

    def parse_param(self) -> str:
        tok = self.next()
        if tok.kind not in ("IDENT", "NUM"):
            raise ScriptSyntaxError(f"expected a rule parameter, found {tok.text!r}", tok.span)
        return tok.text

    def parse_sequent(self) -> Sequent:
        antecedent = self.commas(self.parse_formula) if self.starts_formula() else ()
        self.expect("|-")
        degree = None
        if self.at("{"):
            self.expect("{")
            degree = self.parse_degree()
            self.expect("}")
        consequent = self.commas(self.parse_formula) if self.starts_formula() else ()
        return Sequent(antecedent, consequent, degree)


# ---------------------------------------------------------------------------
# Scripts

@dataclass
class Step:
    step_id: int
    sequent: Sequent
    rule: str                      # "premise" for hypotheses
    refs: Tuple[int, ...] = ()
    params: Tuple[Param, ...] = ()
    span: SourceSpan = SourceSpan(0, 0, 0)


@dataclass
class Theorem:
    name: str
    steps: List[Step]
    derivation: Derivation
    labels: Dict[int, str] = field(default_factory=dict)  # id(node) -> path

    @property
    def goal(self) -> Sequent:
        return self.steps[-1].sequent


@dataclass
class ProofScript:
    atoms: Tuple[str, ...]
    theorems: List[Theorem]
    source: str = ""

    def theorem(self, name: str) -> Theorem:
        for t in self.theorems:
            if t.name == name:
                return t
        raise KeyError(name)


def _parse_whole(text: str, atoms: Optional[Sequence[str]],
                 parse: Callable[[_Parser], T], what: str) -> T:
    """``parse`` over all of ``text``; input left after it is an error."""
    p = _Parser(tokenize(text), atoms)
    result = parse(p)
    tok = p.peek()
    if tok.kind != "EOF":
        raise ScriptSyntaxError(f"trailing input {tok.text!r} after {what}", tok.span)
    return result


def parse_formula(text: str, atoms: Optional[Sequence[str]] = None) -> Formula:
    """Parse a single formula; atom names are unchecked unless given."""
    return _parse_whole(text, atoms, _Parser.parse_formula, "formula")


def parse_sequent(text: str, atoms: Optional[Sequence[str]] = None) -> Sequent:
    return _parse_whole(text, atoms, _Parser.parse_sequent, "sequent")


def _parse_rule_params(p: _Parser, rule: str) -> Tuple[Param, ...]:
    if not p.at("["):
        return ()
    p.next()
    params = (p.parse_formula(),) if rule == "cut" else p.commas(p.parse_param)
    p.expect("]")
    return params


def _parse_step(p: _Parser) -> Step:
    id_span = p.peek().span
    step_id = p.parse_step_number()
    p.expect(":")
    sequent = p.parse_sequent()
    tok = p.next()
    if tok.text == "premise":
        return Step(step_id, sequent, "premise", span=id_span)
    if tok.text == "by":
        rule_tok = p.next()
        if rule_tok.kind != "IDENT":
            raise ScriptSyntaxError("expected a rule name after 'by'", rule_tok.span)
        rule = rule_tok.text.lower()
        if rule not in RULES:
            raise UnknownRule(
                f"no rule named {rule_tok.text!r} exists in this calculus",
                rule_tok.span)
        params = _parse_rule_params(p, rule)
        p.expect("(")
        refs = () if p.at(")") else p.commas(p.parse_step_number)
        p.expect(")")
        return Step(step_id, sequent, rule, refs, params, id_span)
    raise ScriptSyntaxError(
        f"expected 'premise' or 'by <rule>(...)', found {tok.text or 'end of input'!r}",
        tok.span)


def _parse_theorem(p: _Parser, defined: Sequence[Theorem]) -> Theorem:
    p.expect("theorem")
    name_tok = p.next()
    if name_tok.kind != "IDENT" or name_tok.text in KEYWORDS:
        raise ScriptSyntaxError("expected a theorem name", name_tok.span)
    if any(t.name == name_tok.text for t in defined):
        raise ScriptSyntaxError(f"theorem {name_tok.text!r} is already defined",
                                name_tok.span)
    p.expect(":")
    steps: List[Step] = []
    nodes: Dict[int, Derivation] = {}
    labels: Dict[int, str] = {}
    while not p.at("qed"):
        if p.peek().kind == "EOF":
            raise ScriptSyntaxError("theorem is missing its 'qed'", p.peek().span)
        step = _parse_step(p)
        if step.step_id in nodes:
            raise DuplicateStepId(f"step {step.step_id} is already defined", step.span)
        premises = []
        for ref in step.refs:
            if ref not in nodes:
                raise DanglingReference(
                    f"step {step.step_id} refers to undefined step {ref} "
                    "(premises must precede use)", step.span)
            premises.append(nodes[ref])
        node = Derivation(step.rule, step.sequent, tuple(premises), step.params)
        nodes[step.step_id] = node
        labels[id(node)] = f"{name_tok.text}:{step.step_id}"
        steps.append(step)
    p.expect("qed")
    if not steps:
        raise ScriptSyntaxError(f"theorem {name_tok.text!r} has no steps", name_tok.span)
    # references point backwards, so every step a later one uses reaches the last
    used = {ref for step in steps for ref in step.refs}
    for step in steps[:-1]:
        if step.step_id not in used:
            raise UnusedStep(f"step {step.step_id} is used by no later step, so theorem "
                             f"{name_tok.text!r} would drop it", step.span)
    return Theorem(name_tok.text, steps, nodes[steps[-1].step_id], labels)


def parse_script(text: str) -> ProofScript:
    """Parse a complete ``.qsc`` script."""
    tokens = tokenize(text)
    p = _Parser(tokens)
    decl_tok = p.peek()
    if not p.at("atoms"):
        raise ScriptSyntaxError("a script starts with its 'atoms' declaration",
                                decl_tok.span)
    p.next()
    atoms: List[str] = []
    while p.peek().kind == "IDENT" and not p.at("theorem"):
        tok = p.next()
        if tok.text in KEYWORDS:
            raise ScriptSyntaxError(f"{tok.text!r} cannot be an atom name", tok.span)
        if tok.text.startswith("Q_"):
            raise ScriptSyntaxError("atom names may not use the reserved 'Q_' prefix",
                                    tok.span)
        if tok.text in SYMBOLIC_NAMES:
            raise ScriptSyntaxError(f"{tok.text!r} is a reserved degree symbol", tok.span)
        if tok.text in atoms:
            raise ScriptSyntaxError(f"atom {tok.text!r} declared twice", tok.span)
        atoms.append(tok.text)
    if not atoms:
        raise ScriptSyntaxError("at least one atom must be declared", p.peek().span)
    p.atoms = set(atoms)
    theorems: List[Theorem] = []
    while p.at("theorem"):
        theorems.append(_parse_theorem(p, theorems))
    tok = p.peek()
    if tok.kind != "EOF":
        raise ScriptSyntaxError(f"unexpected {tok.text!r} after the last theorem",
                                tok.span)
    if not theorems:
        raise ScriptSyntaxError("a script must contain at least one theorem", tok.span)
    return ProofScript(tuple(atoms), theorems, text)


def script_labels(script: ProofScript) -> Dict[int, str]:
    labels: Dict[int, str] = {}
    for theorem in script.theorems:
        labels.update(theorem.labels)
    return labels
