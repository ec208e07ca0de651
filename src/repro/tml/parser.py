"""Recursive-descent parser for TML.

Grammar (keywords case-insensitive; ``[...]`` optional, ``{...}`` repeated)::

    script        := statement*
    statement     := mine_stmt | explain_stmt | profile_stmt | show_stmt
                   | sql_stmt
    explain_stmt  := EXPLAIN [ANALYZE] mine_stmt
    mine_stmt     := MINE RULES FROM source DURING feature
                       [AT GRANULARITY g]
                       [CONTAINING string {',' string}]
                       with_clause [having_clause] ';'
                   | MINE PERIODS FROM source AT GRANULARITY g
                       with_clause [having_clause] ';'
                   | MINE PERIODICITIES FROM source AT GRANULARITY g
                       with_clause [having_clause]
                       [INCLUDING calendar {',' calendar}]
                       [USING INTERLEAVED] ';'
                   | MINE ITEMSETS FROM source AT GRANULARITY g
                       WITH SUPPORT '>=' number [having_clause] ';'
    profile_stmt  := PROFILE string {',' string} FROM source BY g ';'
    feature       := feature_term {(AND | OR | MINUS) feature_term}
                     -- AND/OR/MINUS combine calendar-like terms only
    feature_term  := PERIOD string TO string
                   | CALENDAR string
                   | EVERY number g [OFFSET number]
                   | ident                      -- a named calendar
    with_clause   := WITH threshold {',' threshold}
    threshold     := SUPPORT '>=' number | CONFIDENCE '>=' number
    having_clause := HAVING having {',' having}
    having        := FREQUENCY '>=' number | COVERAGE '>=' number
                   | PERIOD '<=' number | MATCH '>=' number
                   | REPETITIONS '>=' number
                   | SIZE '<=' number | CONSEQUENT '<=' number
    calendar      := CALENDAR string
    show_stmt     := SHOW SUMMARY ';' | SHOW ITEMS [LIMIT number] ';'
                   | SHOW VOLUME BY g ';'
    set_stmt      := SET BUDGET OFF ';'
                   | SET BUDGET budget_term {',' budget_term} [STRICT] ';'
                   | SET ENGINE (ident | AUTO | OFF) ';'
                   | SET WORKERS (number | AUTO | OFF) ';'
                   | SET TRACE (ON | OFF) ';'
                   | SET INCREMENTAL (ON | OFF | AUTO) ';'
    budget_term   := TIME number | CANDIDATES number | RULES number
    sql_stmt      := anything else, passed through verbatim up to ';'

Statements are first split on semicolons at the raw-text level
(respecting single-quoted strings), so SQL passthrough never has to
satisfy the TML lexer.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

from repro.columnar.backends import validate_backend_name
from repro.errors import MiningParameterError, TmlParseError
from repro.temporal.granularity import Granularity
from repro.tml.ast import (
    CalendarComboFeature,
    CalendarFeature,
    CyclicFeature,
    ExplainStatement,
    FeatureSpec,
    MineItemsetsStatement,
    MinePeriodicitiesStatement,
    MinePeriodsStatement,
    MineRulesStatement,
    ProfileStatement,
    NamedCalendarFeature,
    SetBudgetStatement,
    SetEngineStatement,
    SetIncrementalStatement,
    SetTraceStatement,
    SetWorkersStatement,
    ShowStatement,
    SqlStatement,
    Statement,
)
from repro.tml.lexer import tokenize
from repro.tml.ast import PeriodFeature
from repro.tml.tokens import Token, TokenType


def _is_calendar_like(feature) -> bool:
    """True for features that participate in calendar algebra."""
    return isinstance(
        feature, (CalendarFeature, NamedCalendarFeature, CalendarComboFeature)
    )


def split_statements(text: str) -> List[str]:
    """Split source text into ';'-terminated statements.

    Semicolons inside single-quoted strings do not split; ``--`` comments
    run to end of line.  Trailing whitespace-only fragments are dropped.
    """
    statements: List[str] = []
    current: List[str] = []
    in_string = False
    index = 0
    while index < len(text):
        char = text[index]
        if in_string:
            current.append(char)
            if char == "'":
                if index + 1 < len(text) and text[index + 1] == "'":
                    current.append("'")
                    index += 1
                else:
                    in_string = False
        elif char == "'":
            in_string = True
            current.append(char)
        elif char == "-" and text[index : index + 2] == "--":
            while index < len(text) and text[index] != "\n":
                index += 1
            continue
        elif char == ";":
            statement = "".join(current).strip()
            if statement:
                statements.append(statement)
            current = []
        else:
            current.append(char)
        index += 1
    tail = "".join(current).strip()
    if tail:
        statements.append(tail)
    return statements


def parse_script(text: str) -> List[Statement]:
    """Parse a multi-statement TML script."""
    return [parse_statement(chunk) for chunk in split_statements(text)]


def parse_statement(text: str) -> Statement:
    """Parse exactly one statement (terminating ';' optional)."""
    stripped = text.strip().rstrip(";").strip()
    if not stripped:
        raise TmlParseError("empty statement")
    head = stripped.split(None, 1)[0].upper()
    if head == "MINE":
        return _Parser(stripped).parse_mine()
    if head == "EXPLAIN":
        return _Parser(stripped).parse_explain()
    if head == "SHOW":
        return _Parser(stripped).parse_show()
    if head == "PROFILE":
        return _Parser(stripped).parse_profile()
    if head == "SET":
        return _Parser(stripped).parse_set()
    return SqlStatement(sql=stripped)


class _Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.index = 0

    # -- token plumbing -------------------------------------------------

    def _peek(self) -> Token:
        return self.tokens[self.index]

    def _advance(self) -> Token:
        token = self.tokens[self.index]
        if token.type is not TokenType.EOF:
            self.index += 1
        return token

    def _error(self, message: str) -> TmlParseError:
        token = self._peek()
        return TmlParseError(
            f"{message}, found {token}", token.line, token.column
        )

    def _expect_keyword(self, *names: str) -> Token:
        token = self._peek()
        if not token.is_keyword(*names):
            raise self._error(f"expected {' or '.join(names)}")
        return self._advance()

    def _accept_keyword(self, *names: str) -> Optional[Token]:
        if self._peek().is_keyword(*names):
            return self._advance()
        return None

    def _expect(self, token_type: TokenType, what: str) -> Token:
        token = self._peek()
        if token.type is not token_type:
            raise self._error(f"expected {what}")
        return self._advance()

    def _expect_op(self, op: str) -> None:
        token = self._peek()
        if token.type is not TokenType.OP or token.value != op:
            raise self._error(f"expected {op!r}")
        self._advance()

    def _number(self, what: str) -> float:
        return float(self._expect(TokenType.NUMBER, what).value)

    def _integer(self, what: str) -> int:
        token = self._expect(TokenType.NUMBER, what)
        if "." in token.value:
            raise TmlParseError(
                f"expected an integer {what}, got {token.value}",
                token.line,
                token.column,
            )
        return int(token.value)

    def _granularity(self) -> Granularity:
        token = self._peek()
        if token.type not in (TokenType.IDENT, TokenType.KEYWORD):
            raise self._error("expected a granularity name")
        self._advance()
        try:
            return Granularity.parse(token.value)
        except Exception:
            raise TmlParseError(
                f"unknown granularity {token.value!r}", token.line, token.column
            ) from None

    def _finish(self) -> None:
        token = self._peek()
        if token.type is not TokenType.EOF:
            raise self._error("unexpected trailing input")

    # -- statements -----------------------------------------------------

    def parse_show(self) -> ShowStatement:
        self._expect_keyword("SHOW")
        if self._accept_keyword("SUMMARY"):
            self._finish()
            return ShowStatement(what="summary")
        if self._accept_keyword("ITEMS"):
            limit = None
            if self._accept_keyword("LIMIT"):
                limit = self._integer("limit")
            self._finish()
            return ShowStatement(what="items", limit=limit)
        if self._accept_keyword("VOLUME"):
            self._expect_keyword("BY")
            granularity = self._granularity()
            self._finish()
            return ShowStatement(what="volume", granularity=granularity)
        raise self._error("expected SUMMARY, ITEMS or VOLUME")

    def parse_set(
        self,
    ) -> Union[
        SetBudgetStatement,
        SetEngineStatement,
        SetIncrementalStatement,
        SetTraceStatement,
        SetWorkersStatement,
    ]:
        self._expect_keyword("SET")
        if self._accept_keyword("ENGINE"):
            return self._parse_set_engine()
        if self._accept_keyword("WORKERS"):
            return self._parse_workers()
        if self._accept_keyword("TRACE"):
            return self._parse_set_trace()
        if self._accept_keyword("INCREMENTAL"):
            return self._parse_set_incremental()
        self._expect_keyword("BUDGET")
        if self._accept_keyword("OFF"):
            self._finish()
            return SetBudgetStatement(off=True)
        max_seconds: Optional[float] = None
        max_candidates: Optional[int] = None
        max_rules: Optional[int] = None
        while True:
            token = self._expect_keyword("TIME", "CANDIDATES", "RULES")
            if token.value == "TIME":
                if max_seconds is not None:
                    raise TmlParseError(
                        "duplicate budget term TIME", token.line, token.column
                    )
                max_seconds = self._number("a time budget in seconds")
            elif token.value == "CANDIDATES":
                if max_candidates is not None:
                    raise TmlParseError(
                        "duplicate budget term CANDIDATES", token.line, token.column
                    )
                max_candidates = self._integer("a candidate budget")
            else:
                if max_rules is not None:
                    raise TmlParseError(
                        "duplicate budget term RULES", token.line, token.column
                    )
                max_rules = self._integer("a rule budget")
            if self._peek().type is TokenType.COMMA:
                self._advance()
                continue
            break
        strict = bool(self._accept_keyword("STRICT"))
        self._finish()
        return SetBudgetStatement(
            max_seconds=max_seconds,
            max_candidates=max_candidates,
            max_rules=max_rules,
            strict=strict,
        )

    def _parse_set_engine(self) -> SetEngineStatement:
        if self._accept_keyword("OFF"):
            self._finish()
            return SetEngineStatement(off=True)
        token = self._expect(TokenType.IDENT, "a counting engine name or AUTO")
        try:
            name = validate_backend_name(token.value.lower())
        except MiningParameterError as error:
            raise TmlParseError(str(error), token.line, token.column) from None
        self._finish()
        return SetEngineStatement(engine=name)

    def _parse_workers(self) -> SetWorkersStatement:
        if self._accept_keyword("OFF"):
            self._finish()
            return SetWorkersStatement(workers=1, off=True)
        token = self._peek()
        if token.type is TokenType.IDENT and token.value.lower() == "auto":
            self._advance()
            self._finish()
            return SetWorkersStatement(workers=None)
        valid = "valid choices: AUTO, OFF, or an integer >= 1"
        if token.type is not TokenType.NUMBER or "." in token.value:
            raise TmlParseError(
                f"invalid worker count {token.value!r}; {valid}",
                token.line,
                token.column,
            )
        workers = int(token.value)
        if workers < 1:
            raise TmlParseError(
                f"invalid worker count {token.value!r}; {valid}",
                token.line,
                token.column,
            )
        self._advance()
        self._finish()
        return SetWorkersStatement(workers=workers)

    def _parse_set_trace(self) -> SetTraceStatement:
        token = self._expect_keyword("ON", "OFF")
        self._finish()
        return SetTraceStatement(on=token.value == "ON")

    def _parse_set_incremental(self) -> SetIncrementalStatement:
        if self._accept_keyword("ON"):
            self._finish()
            return SetIncrementalStatement(mode="on")
        if self._accept_keyword("OFF"):
            self._finish()
            return SetIncrementalStatement(mode="off")
        token = self._peek()
        if token.type is TokenType.IDENT and token.value.lower() == "auto":
            self._advance()
            self._finish()
            return SetIncrementalStatement(mode="auto")
        raise self._error("expected ON, OFF or AUTO")

    def parse_explain(self) -> Statement:
        self._expect_keyword("EXPLAIN")
        analyze = bool(self._accept_keyword("ANALYZE"))
        inner = self.parse_mine()
        return ExplainStatement(inner=inner, analyze=analyze)  # type: ignore[arg-type]

    def parse_mine(self) -> Statement:
        self._expect_keyword("MINE")
        kind = self._expect_keyword(
            "RULES", "PERIODS", "PERIODICITIES", "ITEMSETS", "TRENDS"
        )
        self._expect_keyword("FROM")
        source = self._expect(TokenType.IDENT, "a source name").value
        if kind.value == "RULES":
            return self._mine_rules(source)
        if kind.value == "PERIODS":
            return self._mine_periods(source)
        if kind.value == "ITEMSETS":
            return self._mine_itemsets(source)
        if kind.value == "TRENDS":
            return self._mine_trends(source)
        return self._mine_periodicities(source)

    def parse_profile(self) -> Statement:
        self._expect_keyword("PROFILE")
        labels: List[str] = [self._expect(TokenType.STRING, "an item label").value]
        while self._peek().type is TokenType.COMMA:
            self._advance()
            labels.append(self._expect(TokenType.STRING, "an item label").value)
        self._expect_keyword("FROM")
        source = self._expect(TokenType.IDENT, "a source name").value
        self._expect_keyword("BY")
        granularity = self._granularity()
        self._finish()
        return ProfileStatement(
            labels=tuple(labels), source=source, granularity=granularity
        )

    def _mine_trends(self, source: str) -> "MineTrendsStatement":
        from repro.tml.ast import MineTrendsStatement

        self._expect_keyword("AT")
        self._expect_keyword("GRANULARITY")
        granularity = self._granularity()
        self._expect_keyword("WITH")
        self._expect_keyword("SUPPORT")
        self._expect_op(">=")
        min_support = self._number("a support threshold")
        havings = self._having_clause(allowed=("CHANGE", "FIT", "SIZE"))
        self._finish()
        return MineTrendsStatement(
            source=source,
            granularity=granularity,
            min_support=min_support,
            min_change=float(havings.get("CHANGE", 0.1)),
            min_fit=float(havings.get("FIT", 0.5)),
            max_size=int(havings.get("SIZE", 0)),
        )

    def _mine_itemsets(self, source: str) -> MineItemsetsStatement:
        self._expect_keyword("AT")
        self._expect_keyword("GRANULARITY")
        granularity = self._granularity()
        self._expect_keyword("WITH")
        self._expect_keyword("SUPPORT")
        self._expect_op(">=")
        min_support = self._number("a support threshold")
        havings = self._having_clause(allowed=("FREQUENCY", "COVERAGE", "SIZE"))
        self._finish()
        return MineItemsetsStatement(
            source=source,
            granularity=granularity,
            min_support=min_support,
            min_frequency=float(havings.get("FREQUENCY", 1.0)),
            min_coverage=int(havings.get("COVERAGE", 2)),
            max_size=int(havings.get("SIZE", 0)),
        )

    def _mine_rules(self, source: str) -> MineRulesStatement:
        self._expect_keyword("DURING")
        feature = self._feature()
        granularity: Optional[Granularity] = None
        if self._accept_keyword("AT"):
            self._expect_keyword("GRANULARITY")
            granularity = self._granularity()
        containing: List[str] = []
        if self._accept_keyword("CONTAINING"):
            while True:
                containing.append(
                    self._expect(TokenType.STRING, "an item label").value
                )
                if self._peek().type is TokenType.COMMA:
                    self._advance()
                    continue
                break
        min_support, min_confidence = self._with_clause()
        havings = self._having_clause(allowed=("SIZE", "CONSEQUENT"))
        self._finish()
        return MineRulesStatement(
            source=source,
            feature=feature,
            granularity=granularity,
            containing=tuple(containing),
            min_support=min_support,
            min_confidence=min_confidence,
            max_size=int(havings.get("SIZE", 0)),
            max_consequent=int(havings.get("CONSEQUENT", 1)),
        )

    def _mine_periods(self, source: str) -> MinePeriodsStatement:
        self._expect_keyword("AT")
        self._expect_keyword("GRANULARITY")
        granularity = self._granularity()
        min_support, min_confidence = self._with_clause()
        havings = self._having_clause(
            allowed=("FREQUENCY", "COVERAGE", "SIZE", "CONSEQUENT")
        )
        self._finish()
        return MinePeriodsStatement(
            source=source,
            granularity=granularity,
            min_support=min_support,
            min_confidence=min_confidence,
            min_frequency=float(havings.get("FREQUENCY", 1.0)),
            min_coverage=int(havings.get("COVERAGE", 2)),
            max_size=int(havings.get("SIZE", 0)),
            max_consequent=int(havings.get("CONSEQUENT", 1)),
        )

    def _mine_periodicities(self, source: str) -> MinePeriodicitiesStatement:
        self._expect_keyword("AT")
        self._expect_keyword("GRANULARITY")
        granularity = self._granularity()
        min_support, min_confidence = self._with_clause()
        havings = self._having_clause(
            allowed=("PERIOD", "MATCH", "REPETITIONS", "SIZE", "CONSEQUENT")
        )
        calendars: List[str] = []
        if self._accept_keyword("INCLUDING"):
            while True:
                self._expect_keyword("CALENDAR")
                calendars.append(self._expect(TokenType.STRING, "a pattern string").value)
                if self._peek().type is TokenType.COMMA:
                    self._advance()
                    continue
                break
        interleaved = False
        if self._accept_keyword("USING"):
            self._expect_keyword("INTERLEAVED")
            interleaved = True
        self._finish()
        return MinePeriodicitiesStatement(
            source=source,
            granularity=granularity,
            min_support=min_support,
            min_confidence=min_confidence,
            max_period=int(havings.get("PERIOD", 12)),
            min_match=float(havings.get("MATCH", 1.0)),
            min_repetitions=int(havings.get("REPETITIONS", 2)),
            calendars=tuple(calendars),
            interleaved=interleaved,
            max_size=int(havings.get("SIZE", 0)),
            max_consequent=int(havings.get("CONSEQUENT", 1)),
        )

    # -- clauses ----------------------------------------------------------

    def _feature(self) -> FeatureSpec:
        feature = self._feature_term()
        # Calendar-like features combine with AND / OR / MINUS
        # (left-associative).
        while self._peek().is_keyword("AND", "OR", "MINUS"):
            operator = self._advance().value
            if not _is_calendar_like(feature):
                raise self._error(
                    f"{operator} combines calendar features only"
                )
            right = self._feature_term()
            if not _is_calendar_like(right):
                raise self._error(
                    f"{operator} combines calendar features only"
                )
            feature = CalendarComboFeature(op=operator, left=feature, right=right)
        return feature

    def _feature_term(self) -> FeatureSpec:
        if self._accept_keyword("PERIOD"):
            start = self._expect(TokenType.STRING, "a start timestamp").value
            self._expect_keyword("TO")
            end = self._expect(TokenType.STRING, "an end timestamp").value
            return PeriodFeature(start_text=start, end_text=end)
        if self._accept_keyword("CALENDAR"):
            pattern = self._expect(TokenType.STRING, "a pattern string").value
            return CalendarFeature(pattern_text=pattern)
        if self._accept_keyword("EVERY"):
            period = self._integer("a cycle period")
            granularity = self._granularity()
            offset = 0
            if self._accept_keyword("OFFSET"):
                offset = self._integer("a cycle offset")
            return CyclicFeature(period=period, granularity=granularity, offset=offset)
        if self._peek().type is TokenType.IDENT:
            name = self._advance().value
            return NamedCalendarFeature(name=name)
        raise self._error(
            "expected PERIOD, CALENDAR, EVERY or a named calendar"
        )

    def _with_clause(self) -> Tuple[float, float]:
        self._expect_keyword("WITH")
        min_support: Optional[float] = None
        min_confidence: Optional[float] = None
        while True:
            token = self._expect_keyword("SUPPORT", "CONFIDENCE")
            self._expect_op(">=")
            value = self._number("a threshold")
            if token.value == "SUPPORT":
                min_support = value
            else:
                min_confidence = value
            if self._peek().type is TokenType.COMMA or self._peek().is_keyword("AND"):
                self._advance()
                continue
            break
        if min_support is None:
            raise self._error("WITH clause must set SUPPORT")
        if min_confidence is None:
            raise self._error("WITH clause must set CONFIDENCE")
        return min_support, min_confidence

    _HAVING_OPS = {
        "FREQUENCY": ">=",
        "COVERAGE": ">=",
        "PERIOD": "<=",
        "MATCH": ">=",
        "REPETITIONS": ">=",
        "SIZE": "<=",
        "CONSEQUENT": "<=",
        "CHANGE": ">=",
        "FIT": ">=",
    }

    def _having_clause(self, allowed: Tuple[str, ...]) -> dict:
        havings: dict = {}
        if not self._accept_keyword("HAVING"):
            return havings
        while True:
            token = self._expect_keyword(*allowed)
            self._expect_op(self._HAVING_OPS[token.value])
            if token.value in havings:
                raise TmlParseError(
                    f"duplicate HAVING term {token.value}", token.line, token.column
                )
            havings[token.value] = self._number(f"a {token.value.lower()} bound")
            if self._peek().type is TokenType.COMMA or self._peek().is_keyword("AND"):
                self._advance()
                continue
            break
        return havings
