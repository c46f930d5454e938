"""Atomic-symbol extraction from logical forms and entity-linking rules.

Lambda calculus: symbols are predicate heads, the token following an
opening parenthesis, minus a stop list of structural operators.  SQL:
symbols are column names, read from the select list, filter left-hand
sides, and group/order clauses of a flat SELECT subset; table names,
aggregates, keywords, and literal values are never symbols.

Entity linking fixes alignments before EM ever runs:
  rule 1 (lambda)  a predicate whose sole entity argument matches an
                   annotated utterance span aligns to that span;
  rule 2 (SQL)     a filter column compared to a value that matches an
                   annotated span aligns to that span.
"""

from __future__ import annotations

import re
from dataclasses import replace
from typing import Dict, List, Sequence, Set, Tuple

from .corpus import (CorpusExample, MeaningRepresentation, SymbolSet,
                     _token_matches_entity)

__all__ = [
    "MeaningParseError",
    "extract_symbols",
    "entity_link",
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

_IDENTIFIER = re.compile(r"^[A-Za-z_][A-Za-z0-9_.]*$")


def _is_sql_literal(token: str) -> bool:
    if len(token) >= 2 and token[0] == token[-1] and token[0] in "\"'":
        return True
    return bool(re.match(r"^\d+(\.\d+)?$", token))


def extract_symbols(meaning: MeaningRepresentation) -> List[str]:
    """Ordered distinct atomic symbols of a logical form."""
    if meaning.formalism == "lambda":
        return _extract_lambda(meaning.tokens)
    return _extract_sql(meaning.tokens)


def _extract_lambda(tokens: Sequence[str]) -> List[str]:
    depth = 0
    out: List[str] = []
    seen: Set[str] = set()
    prev_open = False
    for token in tokens:
        if token == "(":
            depth += 1
            prev_open = True
            continue
        if token == ")":
            depth -= 1
            if depth < 0:
                raise MeaningParseError("unbalanced parentheses: extra ')'")
            prev_open = False
            continue
        if prev_open and token not in LAMBDA_OPERATORS and not token.startswith("$"):
            if token not in seen:
                seen.add(token)
                out.append(token)
        prev_open = False
    if depth != 0:
        raise MeaningParseError("unbalanced parentheses: missing ')'")
    return out


def _extract_sql(tokens: Sequence[str]) -> List[str]:
    if not tokens or tokens[0].lower() != "select":
        raise MeaningParseError("SQL form must start with select")
    out: List[str] = []
    seen: Set[str] = set()
    # Segments whose identifiers are columns; "from" identifiers are tables.
    state = None
    pending_by = False
    for token in tokens:
        low = token.lower()
        if low in ("group", "order"):
            pending_by = True
            continue
        if pending_by and low == "by":
            state = "columns"
            pending_by = False
            continue
        pending_by = False
        if low == "select":
            state = "select"
            continue
        if low == "from":
            state = "from"
            continue
        if low in ("where", "having"):
            state = "filter"
            continue
        if state in ("select", "filter", "columns") \
                and _IDENTIFIER.match(token) \
                and low not in SQL_KEYWORDS \
                and low not in SQL_AGGREGATES \
                and not _is_sql_literal(token):
            if token not in seen:
                seen.add(token)
                out.append(token)
    return out


def _lambda_groups(tokens: Sequence[str]) -> List[List[str]]:
    """Immediate argument tokens of every (head arg...) group, head first.

    Nested sub-expressions contribute their own group; inside the parent
    they are represented by nothing (only top-level atoms are arguments).
    """
    stack: List[List[str]] = []
    groups: List[List[str]] = []
    for token in tokens:
        if token == "(":
            stack.append([])
        elif token == ")":
            if not stack:
                raise MeaningParseError("unbalanced parentheses: extra ')'")
            groups.append(stack.pop())
        else:
            if stack:
                stack[-1].append(token)
    if stack:
        raise MeaningParseError("unbalanced parentheses: missing ')'")
    return groups


def entity_link(example: CorpusExample) -> SymbolSet:
    """Return the example's SymbolSet with rule-based fixed alignments."""
    spans = example.utterance.entity_spans
    sset = example.symbol_set
    if not spans:
        return sset
    symbol_order = set(sset.symbols)
    fixed: Dict[str, Set[int]] = {}

    def link(symbol: str, span) -> None:
        fixed.setdefault(symbol, set()).update(range(span.start, span.end))

    if example.meaning.formalism == "lambda":
        for group in _lambda_groups(example.meaning.tokens):
            if not group or group[0] not in symbol_order:
                continue
            head, args = group[0], group[1:]
            matches = []
            for arg in args:
                for span in spans:
                    if _token_matches_entity(arg, span.entity_id):
                        matches.append(span)
                        break
            # Rule 1 wants a sole entity argument.
            if len(matches) == 1:
                link(head, matches[0])
    else:
        tokens = example.meaning.tokens
        state = None
        for i, token in enumerate(tokens):
            low = token.lower()
            if low in ("where", "having"):
                state = "filter"
                continue
            if low in ("group", "order", "select", "from"):
                state = None
                continue
            if state == "filter" and low in _SQL_COMPARATORS and 0 < i < len(tokens) - 1:
                column, value = tokens[i - 1], tokens[i + 1]
                if column in symbol_order:
                    for span in spans:
                        if _token_matches_entity(value, span.entity_id):
                            link(column, span)
                            break

    if not fixed:
        return sset
    merged = dict(sset.fixed_alignments)
    for symbol, indices in fixed.items():
        merged[symbol] = tuple(sorted(set(merged.get(symbol, ())) | indices))
    return replace(sset, fixed_alignments=merged)
