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
``beta``.  Precedence, loosest first: ``@`` < ``&`` < ``#`` < ``^``;
parentheses override.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .kernel import RULES, Derivation, Param
from .syntax import (
    And,
    Atom,
    Degree,
    Ent,
    Formula,
    NULL,
    Par,
    Qubit,
    Sequent,
    SymDegree,
)

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


# ---------------------------------------------------------------------------
# Lexer

# The first alternative that matches wins; the unnamed ones (blanks and
# comments) make no token.  Every character is one column wide.
_REAL = r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_TOKEN_RE = re.compile(
    r"(?P<NL>\n)|[ \t\r]+|--[^\n]*"
    r"|(?P<PUNCT>\|-|[,:()\[\]{}&#@^])"
    r"|(?P<IDENT>[A-Za-z_][A-Za-z0-9_']*)"
    rf"|(?P<NUM>[+-]?{_REAL}(?:[+-]{_REAL}i|i)?)"
)


@dataclass(frozen=True)
class Token:
    kind: str   # IDENT | NUM | PUNCT | EOF
    text: str
    span: SourceSpan


def tokenize(text: str) -> List[Token]:
    tokens: List[Token] = []
    line, line_start, pos = 1, 0, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ScriptSyntaxError(f"unexpected character {text[pos]!r}",
                                    SourceSpan(line, pos - line_start + 1, 1))
        kind, end = m.lastgroup, m.end()
        if kind == "NL":
            line, line_start = line + 1, end
        elif kind:
            tokens.append(Token(kind, m.group(), SourceSpan(line, pos - line_start + 1,
                                                            end - pos)))
        pos = end
    tokens.append(Token("EOF", "", SourceSpan(line, len(text) - line_start + 1, 0)))
    return tokens


def _parse_number(token: Token) -> complex:
    try:
        return complex(token.text.replace("i", "j"))
    except ValueError:
        raise ScriptSyntaxError(f"bad numeric literal {token.text!r}", token.span)


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
        tok = self.peek()
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def at_punct(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == "PUNCT" and tok.text == text

    def at_keyword(self, word: str) -> bool:
        tok = self.peek()
        return tok.kind == "IDENT" and tok.text == word

    def expect_punct(self, text: str) -> Token:
        tok = self.next()
        if tok.kind != "PUNCT" or tok.text != text:
            raise ScriptSyntaxError(f"expected {text!r}, found {tok.text or 'end of input'!r}",
                                    tok.span)
        return tok

    def expect_keyword(self, word: str) -> Token:
        tok = self.next()
        if tok.kind != "IDENT" or tok.text != word:
            raise ScriptSyntaxError(f"expected {word!r}, found {tok.text or 'end of input'!r}",
                                    tok.span)
        return tok

    # -- degrees ------------------------------------------------------------

    def parse_degree(self) -> Degree:
        tok = self.next()
        if tok.kind == "NUM":
            return _parse_number(tok)
        if tok.kind == "IDENT" and tok.text in ("alpha", "beta"):
            return SymDegree(tok.text)
        raise ScriptSyntaxError(
            f"expected a degree (number, alpha or beta), found {tok.text!r}", tok.span)

    def parse_degree_pair(self) -> Tuple[Degree, Degree]:
        self.expect_punct("{")
        first = self.parse_degree()
        self.expect_punct(",")
        second = self.parse_degree()
        self.expect_punct("}")
        return first, second

    # -- formulas -----------------------------------------------------------

    def starts_formula(self) -> bool:
        tok = self.peek()
        if tok.kind == "NUM":
            return tok.text == "0"
        if tok.kind == "IDENT":
            return tok.text not in KEYWORDS
        return tok.kind == "PUNCT" and tok.text == "("

    def parse_formula(self) -> Formula:
        if not self.depth:
            self.start = self.pos
        left = self.parse_and()
        while self.at_punct("@"):
            at = self.next()
            right = self.parse_and()
            for side in (left, right):
                if not isinstance(side, (Qubit, Atom)):
                    raise ScriptSyntaxError(
                        "@ relates qubit propositions Q_X (or a collapsed "
                        "literal); parenthesized compounds are not qubits", at.span)
            left = Ent(left, right)
        return left

    def parse_and(self) -> Formula:
        left = self.parse_par()
        while self.at_punct("&"):
            self.next()
            degrees = self.parse_degree_pair() if self.at_punct("{") else None
            right = self.parse_par()
            left = And(left, right, degrees)
        return left

    def parse_par(self) -> Formula:
        left = self.parse_primary()
        while self.at_punct("#"):
            self.next()
            right = self.parse_primary()
            left = Par(left, right)
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
        if tok.kind == "PUNCT" and tok.text == "(":
            self.depth += 1
            inner = self.parse_formula()
            self.depth -= 1
            self.expect_punct(")")
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
                degrees = self.parse_degree_pair() if self.at_punct("{") else None
                self._reject_caret("a qubit proposition")
                return Qubit(name, degrees)
            self._check_atom(tok.text, tok)
            negated = False
            if self.at_punct("^"):
                self.next()
                negated = True
                if self.at_punct("^"):
                    raise ScriptSyntaxError(
                        "double negation collapses; write the atom itself",
                        self.peek().span)
            return Atom(tok.text, negated)
        raise ScriptSyntaxError(f"expected a formula, found {tok.text or 'end of input'!r}",
                                tok.span)

    def _reject_caret(self, what: str) -> None:
        if self.at_punct("^"):
            raise ScriptSyntaxError(f"negation applies to atoms only, not {what}",
                                    self.peek().span)

    def _check_atom(self, name: str, tok: Token) -> None:
        if self.atoms is not None and name not in self.atoms:
            raise UnknownAtom(f"atom {name!r} is not declared", tok.span)

    # -- sequents -----------------------------------------------------------

    def parse_formula_list(self) -> Tuple[Formula, ...]:
        formulas = [self.parse_formula()]
        while self.at_punct(","):
            self.next()
            formulas.append(self.parse_formula())
        return tuple(formulas)

    def parse_sequent(self) -> Sequent:
        antecedent: Tuple[Formula, ...] = ()
        if self.starts_formula():
            antecedent = self.parse_formula_list()
        self.expect_punct("|-")
        degree = None
        if self.at_punct("{"):
            self.expect_punct("{")
            degree = self.parse_degree()
            self.expect_punct("}")
        consequent: Tuple[Formula, ...] = ()
        if self.starts_formula():
            consequent = self.parse_formula_list()
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


def parse_formula(text: str, atoms: Optional[Sequence[str]] = None) -> Formula:
    """Parse a single formula; atom names are unchecked unless given."""
    p = _Parser(tokenize(text), atoms)
    f = p.parse_formula()
    tok = p.peek()
    if tok.kind != "EOF":
        raise ScriptSyntaxError(f"trailing input {tok.text!r} after formula", tok.span)
    return f


def parse_sequent(text: str, atoms: Optional[Sequence[str]] = None) -> Sequent:
    p = _Parser(tokenize(text), atoms)
    s = p.parse_sequent()
    tok = p.peek()
    if tok.kind != "EOF":
        raise ScriptSyntaxError(f"trailing input {tok.text!r} after sequent", tok.span)
    return s


def _parse_rule_params(p: _Parser, rule: str) -> Tuple[Param, ...]:
    if not p.at_punct("["):
        return ()
    p.expect_punct("[")
    params: List[Param] = []
    if rule == "cut":
        params.append(p.parse_formula())
    else:
        while True:
            tok = p.next()
            if tok.kind not in ("IDENT", "NUM"):
                raise ScriptSyntaxError(
                    f"expected a rule parameter, found {tok.text!r}", tok.span)
            params.append(tok.text)
            if not p.at_punct(","):
                break
            p.next()
    p.expect_punct("]")
    return tuple(params)


def _parse_int(p: _Parser) -> Tuple[int, Token]:
    tok = p.next()
    if tok.kind != "NUM" or not re.fullmatch(r"\d+", tok.text):
        raise ScriptSyntaxError(f"expected a step number, found {tok.text!r}", tok.span)
    return int(tok.text), tok


def _parse_step(p: _Parser) -> Step:
    step_id, id_tok = _parse_int(p)
    p.expect_punct(":")
    sequent = p.parse_sequent()
    tok = p.next()
    if tok.kind == "IDENT" and tok.text == "premise":
        return Step(step_id, sequent, "premise", span=id_tok.span)
    if tok.kind == "IDENT" and tok.text == "by":
        rule_tok = p.next()
        if rule_tok.kind != "IDENT":
            raise ScriptSyntaxError("expected a rule name after 'by'", rule_tok.span)
        rule = rule_tok.text.lower()
        if rule not in RULES:
            raise UnknownRule(
                f"no rule named {rule_tok.text!r} exists in this calculus",
                rule_tok.span)
        params = _parse_rule_params(p, rule)
        p.expect_punct("(")
        refs: List[int] = []
        if not p.at_punct(")"):
            while True:
                ref, _ = _parse_int(p)
                refs.append(ref)
                if not p.at_punct(","):
                    break
                p.next()
        p.expect_punct(")")
        return Step(step_id, sequent, rule, tuple(refs), params, id_tok.span)
    raise ScriptSyntaxError(
        f"expected 'premise' or 'by <rule>(...)', found {tok.text or 'end of input'!r}",
        tok.span)


def _parse_theorem(p: _Parser) -> Theorem:
    p.expect_keyword("theorem")
    name_tok = p.next()
    if name_tok.kind != "IDENT" or name_tok.text in KEYWORDS:
        raise ScriptSyntaxError("expected a theorem name", name_tok.span)
    p.expect_punct(":")
    steps: List[Step] = []
    nodes: Dict[int, Derivation] = {}
    labels: Dict[int, str] = {}
    while not p.at_keyword("qed"):
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
    p.expect_keyword("qed")
    if not steps:
        raise ScriptSyntaxError(f"theorem {name_tok.text!r} has no steps", name_tok.span)
    return Theorem(name_tok.text, steps, nodes[steps[-1].step_id], labels)


def parse_script(text: str) -> ProofScript:
    """Parse a complete ``.qsc`` script."""
    tokens = tokenize(text)
    p = _Parser(tokens)
    decl_tok = p.peek()
    if not p.at_keyword("atoms"):
        raise ScriptSyntaxError("a script starts with its 'atoms' declaration",
                                decl_tok.span)
    p.next()
    atoms: List[str] = []
    while p.peek().kind == "IDENT" and not p.at_keyword("theorem"):
        tok = p.next()
        if tok.text in KEYWORDS:
            raise ScriptSyntaxError(f"{tok.text!r} cannot be an atom name", tok.span)
        if tok.text.startswith("Q_"):
            raise ScriptSyntaxError("atom names may not use the reserved 'Q_' prefix",
                                    tok.span)
        if tok.text in ("alpha", "beta"):
            raise ScriptSyntaxError(f"{tok.text!r} is a reserved degree symbol", tok.span)
        if tok.text in atoms:
            raise ScriptSyntaxError(f"atom {tok.text!r} declared twice", tok.span)
        atoms.append(tok.text)
    if not atoms:
        raise ScriptSyntaxError("at least one atom must be declared", p.peek().span)
    p.atoms = set(atoms)
    theorems: List[Theorem] = []
    while p.at_keyword("theorem"):
        theorems.append(_parse_theorem(p))
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
