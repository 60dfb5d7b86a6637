"""Inline suppression comments for boomerlint.

Two scopes, both spelled in ordinary comments so they survive formatters:

* line scope — ``# boomerlint: disable=R1`` (or ``disable=R1,R4``) as a
  *trailing* comment suppresses the named rules on that line; on a
  comment-only line it suppresses them on the next source line too (the
  "banner" form, for statements that are awkward to tail-comment);
* file scope — ``# boomerlint: disable-file=R6`` anywhere in the file
  (conventionally the top) suppresses the named rules for the whole
  module.

``all`` is accepted in place of a rule list.  Unknown rule ids in a
suppression are not errors — a suppression written for a rule that is
later retired must not break the build it was protecting.
"""

from __future__ import annotations

import io
import re
import tokenize

__all__ = ["Suppressions", "parse_suppressions"]

_DIRECTIVE = re.compile(
    r"#\s*boomerlint:\s*disable(?P<file_scope>-file)?\s*=\s*"
    r"(?P<rules>[A-Za-z0-9_]+(?:\s*,\s*[A-Za-z0-9_]+)*)"
)


class Suppressions:
    """The parsed suppression directives of one module."""

    def __init__(self) -> None:
        self.file_rules: set[str] = set()
        self.line_rules: dict[int, set[str]] = {}

    def add_line(self, line: int, rules: set[str]) -> None:
        self.line_rules.setdefault(line, set()).update(rules)

    def suppressed(self, rule_id: str, line: int) -> bool:
        """True when ``rule_id`` is disabled at ``line``."""
        if "all" in self.file_rules or rule_id in self.file_rules:
            return True
        rules = self.line_rules.get(line)
        return rules is not None and ("all" in rules or rule_id in rules)

    def __bool__(self) -> bool:
        return bool(self.file_rules or self.line_rules)

    def to_dict(self) -> dict[str, object]:
        """JSON-ready form (the incremental cache's entry payload)."""
        return {
            "file_rules": sorted(self.file_rules),
            "line_rules": {
                str(line): sorted(rules)
                for line, rules in sorted(self.line_rules.items())
            },
        }

    @classmethod
    def from_dict(cls, payload: dict[str, object]) -> "Suppressions":
        out = cls()
        out.file_rules = {str(r) for r in payload.get("file_rules", [])}  # type: ignore[union-attr]
        line_rules = payload.get("line_rules", {})
        if isinstance(line_rules, dict):
            for line, rules in line_rules.items():
                out.line_rules[int(line)] = {str(r) for r in rules}
        return out


def _parse_directive(comment: str) -> tuple[bool, set[str]] | None:
    match = _DIRECTIVE.search(comment)
    if match is None:
        return None
    rules = {part.strip() for part in match.group("rules").split(",") if part.strip()}
    return (match.group("file_scope") is not None, rules)


def parse_suppressions(text: str) -> Suppressions:
    """Scan ``text`` (module source) for ``# boomerlint:`` directives.

    Tokenizes rather than grepping so a ``# boomerlint:`` *inside a
    string literal* is never mistaken for a directive.  On tokenize
    failure (the engine reports the syntax error separately) returns an
    empty suppression set.
    """
    out = Suppressions()
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(text).readline))
    except (tokenize.TokenError, SyntaxError, IndentationError):
        return out
    lines = text.splitlines()
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        parsed = _parse_directive(token.string)
        if parsed is None:
            continue
        file_scope, rules = parsed
        if file_scope:
            out.file_rules.update(rules)
            continue
        line = token.start[0]
        out.add_line(line, rules)
        # A comment-only line ("banner" form) guards the next line too.
        prefix = lines[line - 1][: token.start[1]] if line <= len(lines) else ""
        if prefix.strip() == "":
            out.add_line(line + 1, rules)
    return out
