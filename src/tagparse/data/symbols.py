"""Atomic-symbol extraction from logical forms and entity-linking rules.

Each form is read once, and that one reading gives both the symbols and
the entity links.

Lambda calculus: one pass records every ( ... ) group in opening order.
A group's head is the atom right after its "("; a group that opens with
a nested group has no head.  Symbols are the distinct heads minus a stop
list of structural operators and $ variables.  SQL: one clause scanner
labels every non-keyword token with its clause (select, from, filter, or
the columns after group by / order by).  Symbols are the column names of
the select, filter and column clauses of a flat SELECT subset; table
names, aggregates, keywords, and literal values are never symbols.

Entity linking fixes alignments before EM ever runs:
  rule 1 (lambda)  a group's head whose sole entity argument among the
                   group's other top-level atoms names an annotated
                   utterance span aligns to that span;
  rule 2 (SQL)     a filter column compared to a value that names an
                   annotated span aligns to that span.
A meaning token names an entity by the one rule `corpus` applies
everywhere: it is the entity id, bare or as a quoted literal.
"""

from __future__ import annotations

import re
from typing import Dict, Iterator, List, Sequence, Set, Tuple

from .corpus import EntitySpan, MeaningRepresentation, SymbolSet, _entity_refs

__all__ = [
    "MeaningParseError",
    "extract_symbols",
    "linked_symbol_set",
]


class MeaningParseError(ValueError):
    """Raised when a logical form cannot be analyzed for symbols."""


# Structural lambda-calculus operators: never symbols.
LAMBDA_OPERATORS = frozenset({
    "lambda", "and", "or", "not", "exists", "count", "argmax", "argmin",
    "sum", "the", ">", "<", "=",
})

SQL_KEYWORDS = frozenset({
    "select", "from", "where", "group", "by", "order", "having", "and",
    "or", "not", "in", "on", "as", "join", "inner", "outer", "left",
    "right", "limit", "distinct", "asc", "desc", "between", "like", "is",
    "null", "union", "intersect", "except",
})

SQL_AGGREGATES = frozenset({"count", "min", "max", "avg", "sum"})

_SQL_COMPARATORS = frozenset({"=", "<", ">", "<=", ">=", "!=", "<>", "like"})

# A column name; quoted and numeric literals never match it.
_IDENTIFIER = re.compile(r"^[A-Za-z_][A-Za-z0-9_.]*$")

# A symbol with the meaning tokens that may name its entity.
Candidate = Tuple[str, Sequence[str]]


def _lambda_groups(tokens: Sequence[str]) -> List[list]:
    """Every group in opening order, as [head or None, other top-level atoms]."""
    groups: List[list] = []
    stack: List[list] = []
    head_next = False
    for token in tokens:
        if token == "(":
            stack.append([None, []])
            groups.append(stack[-1])
            head_next = True
        elif token == ")":
            if not stack:
                raise MeaningParseError("unbalanced parentheses: extra ')'")
            stack.pop()
            head_next = False
        elif head_next:
            stack[-1][0] = token
            head_next = False
        elif stack:
            stack[-1][1].append(token)
    if stack:
        raise MeaningParseError("unbalanced parentheses: missing ')'")
    return groups


def _sql_clauses(tokens: Sequence[str]) -> Iterator[Tuple[int, str, str]]:
    """(index, token, clause) for every token that is not a clause keyword."""
    if not tokens or tokens[0].lower() != "select":
        raise MeaningParseError("SQL form must start with select")
    clause = "select"
    pending_by = False
    for i, token in enumerate(tokens):
        low = token.lower()
        if low in ("group", "order"):
            pending_by = True
            continue
        if pending_by and low == "by":
            clause = "columns"
            pending_by = False
            continue
        pending_by = False
        if low in ("select", "from"):
            clause = low
        elif low in ("where", "having"):
            clause = "filter"
        else:
            yield i, token, clause


def _read(meaning: MeaningRepresentation) -> Tuple[List[str], List[Candidate]]:
    """Ordered distinct symbols, and every linking candidate, in one pass."""
    tokens = meaning.tokens
    if meaning.formalism == "lambda":
        candidates = [(head, args) for head, args in _lambda_groups(tokens)
                      if head is not None and head not in LAMBDA_OPERATORS
                      and not head.startswith("$")]
        return list(dict.fromkeys(head for head, _ in candidates)), candidates
    symbols: Dict[str, None] = {}
    compared: List[Candidate] = []
    last = len(tokens) - 1
    for i, token, clause in _sql_clauses(tokens):
        low = token.lower()
        if clause == "filter" and low in _SQL_COMPARATORS and i < last:
            compared.append((tokens[i - 1], (tokens[i + 1],)))
        elif clause != "from" and _IDENTIFIER.match(token) \
                and low not in SQL_KEYWORDS and low not in SQL_AGGREGATES:
            symbols[token] = None
    return list(symbols), [c for c in compared if c[0] in symbols]


def extract_symbols(meaning: MeaningRepresentation) -> List[str]:
    """Ordered distinct atomic symbols of a logical form."""
    return _read(meaning)[0]


def linked_symbol_set(meaning: MeaningRepresentation, spans: Sequence[EntitySpan],
                      padded_length: int) -> SymbolSet:
    """The form's symbols, with rule-based fixed alignments to `spans`."""
    symbols, candidates = _read(meaning)
    fixed: Dict[str, Set[int]] = {}
    if spans:
        refs = _entity_refs((span.entity_id, span) for span in spans)
        for symbol, tokens in candidates:
            named = [span for span in map(refs.get, tokens) if span is not None]
            if len(named) == 1:
                fixed.setdefault(symbol, set()).update(range(named[0].start, named[0].end))
    return SymbolSet(tuple(symbols), padded_length,
                     {symbol: tuple(sorted(indices)) for symbol, indices in fixed.items()})
