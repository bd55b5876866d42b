"""Tests for the path-expression parser."""

import gc
import weakref

import pytest

from repro.algebra.connectors import Connector
from repro.core.parser import (
    PARSE_MEMO_MAX_CHARS,
    parse_path_expression,
    tokenize,
)
from repro.errors import PathSyntaxError


class TestTokenizer:
    def test_names_and_connectors(self):
        tokens = tokenize("ta@>grad.take")
        assert [(k, v) for k, v, _ in tokens] == [
            ("name", "ta"),
            ("connector", "@>"),
            ("name", "grad"),
            ("connector", "."),
            ("name", "take"),
        ]

    def test_whitespace_allowed(self):
        assert len(tokenize("ta ~ name")) == 3

    def test_two_char_connectors_win(self):
        tokens = tokenize("a<@b")
        assert tokens[1][1] == "<@"

    def test_dashed_names(self):
        tokens = tokenize("teaching-asst@>grad")
        assert tokens[0][1] == "teaching-asst"

    def test_unexpected_character(self):
        with pytest.raises(PathSyntaxError):
            tokenize("a!b")


class TestParsing:
    def test_paper_examples_parse(self):
        for text in (
            "student.take.teacher",
            "student@>person.ssn",
            "department.student@>person.name",
            "ta~name",
            "ta@>grad@>student@>person.name",
            "ta@>instructor@>teacher@>employee@>person.name",
        ):
            expression = parse_path_expression(text)
            assert expression.root in ("student", "department", "ta")

    def test_simple_incomplete_form(self):
        expression = parse_path_expression("ta ~ name")
        assert expression.is_incomplete
        assert expression.is_simple_incomplete
        assert expression.root == "ta"
        assert expression.last_name == "name"

    def test_complete_expression(self):
        expression = parse_path_expression("student.take.teacher")
        assert expression.is_complete
        assert [s.connector for s in expression.steps] == [
            Connector.ASSOC,
            Connector.ASSOC,
        ]

    def test_mixed_incomplete(self):
        expression = parse_path_expression("dept~student.take~name")
        assert expression.tilde_count == 2
        assert not expression.is_simple_incomplete

    def test_all_connector_kinds(self):
        expression = parse_path_expression("a@>b<@c$>d<$e.f~g")
        symbols = [s.symbol for s in expression.steps]
        assert symbols == ["@>", "<@", "$>", "<$", ".", "~"]

    def test_round_trips_through_str(self):
        text = "ta@>grad@>student@>person.name"
        assert str(parse_path_expression(text)) == text

    def test_bare_class_is_a_valid_empty_expression(self):
        expression = parse_path_expression("student")
        assert expression.root == "student"
        assert expression.steps == ()
        assert expression.is_complete


class TestSyntaxErrors:
    @pytest.mark.parametrize(
        "text",
        [
            "",
            "   ",
            "@>name",          # starts with a connector
            "a.",              # trailing connector
            "a~",              # trailing tilde
            "a b",             # two names without a connector
            "a..b",            # derived connector not writable
            "a.~b",            # connector connector
        ],
    )
    def test_rejected(self, text):
        with pytest.raises(PathSyntaxError):
            parse_path_expression(text)

    def test_error_carries_position_and_text(self):
        with pytest.raises(PathSyntaxError) as excinfo:
            parse_path_expression("a!b")
        assert excinfo.value.text == "a!b"
        assert excinfo.value.position == 1


class TestParseMemo:
    def test_a_short_text_is_parsed_once(self):
        text = "ta ~ name"
        assert parse_path_expression(text) is parse_path_expression(text)

    def test_a_long_text_is_not_kept(self):
        text = ".".join(["a"] * (PARSE_MEMO_MAX_CHARS // 2 + 1))
        assert len(text) > PARSE_MEMO_MAX_CHARS
        expression = parse_path_expression(text)
        assert len(expression.steps) == PARSE_MEMO_MAX_CHARS // 2
        assert parse_path_expression(text) is not expression
        kept = weakref.ref(expression)
        gc.disable()
        try:
            del expression
            assert kept() is None
        finally:
            gc.enable()
