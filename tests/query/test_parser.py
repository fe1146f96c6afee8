"""Tests for the SQL-subset parser."""

import pytest

from repro.query import parse_query
from repro.query.parser import QuerySyntaxError
from repro.query.predicate import And, Comparison, Or, RangePredicate, TruePredicate


class TestBasicQueries:
    def test_select_star(self):
        q = parse_query("SELECT * FROM T1")
        assert q.source == "T1"
        assert q.is_star
        assert isinstance(q.where, TruePredicate)

    def test_paper_range_query(self):
        q = parse_query("SELECT * FROM T1 WHERE x IN [0, 256] AND y IN [0, 512]")
        assert isinstance(q.where, And)
        a, b = q.where.children
        assert a == RangePredicate("x", 0, 256)
        assert b == RangePredicate("y", 0, 512)

    def test_select_view(self):
        q = parse_query("SELECT * FROM V1")
        assert q.source == "V1"

    def test_column_list(self):
        q = parse_query("SELECT wp, soil FROM T1")
        assert [i.column for i in q.items] == ["wp", "soil"]

    def test_keywords_case_insensitive(self):
        q = parse_query("select * from T1 where x in [0, 1]")
        assert q.source == "T1"

    def test_comparisons(self):
        q = parse_query("SELECT * FROM V1 WHERE wp > 0.5")
        assert q.where == Comparison("wp", ">", 0.5)

    def test_all_operators(self):
        for op in ("<", "<=", ">", ">=", "=", "!="):
            q = parse_query(f"SELECT * FROM T WHERE a {op} 3")
            assert q.where == Comparison("a", op, 3.0)

    def test_negative_and_scientific_numbers(self):
        q = parse_query("SELECT * FROM T WHERE a > -1.5e-3")
        assert q.where == Comparison("a", ">", -1.5e-3)

    def test_or_and_precedence(self):
        q = parse_query("SELECT * FROM T WHERE a = 1 OR b = 2 AND c = 3")
        # AND binds tighter: a=1 OR (b=2 AND c=3)
        assert isinstance(q.where, Or)
        assert isinstance(q.where.children[1], And)

    def test_parentheses(self):
        q = parse_query("SELECT * FROM T WHERE (a = 1 OR b = 2) AND c = 3")
        assert isinstance(q.where, And)
        assert isinstance(q.where.children[0], Or)


class TestAggregates:
    def test_avg(self):
        q = parse_query("SELECT AVG(wp) FROM V1")
        (item,) = q.items
        assert item.is_aggregate
        assert item.aggregate.func == "avg"
        assert item.aggregate.alias == "avg_wp"

    def test_alias(self):
        q = parse_query("SELECT AVG(wp) AS mean_wp FROM V1")
        assert q.items[0].aggregate.alias == "mean_wp"

    def test_count_star(self):
        q = parse_query("SELECT COUNT(*) FROM V1")
        assert q.items[0].aggregate.attr == "*"

    def test_group_by(self):
        q = parse_query("SELECT x, AVG(wp) FROM V1 GROUP BY x")
        assert q.group_by == ("x",)
        assert q.has_aggregates

    def test_paper_section2_query(self):
        """'Find all reservoirs with average wp > 0.5' — the aggregation
        part parses; the HAVING-style filter is applied by the caller."""
        q = parse_query("SELECT reservoir, AVG(wp) AS mean_wp FROM V1 GROUP BY reservoir")
        assert q.group_by == ("reservoir",)
        assert q.items[1].aggregate.alias == "mean_wp"

    def test_ungrouped_bare_column_with_aggregate_rejected(self):
        with pytest.raises(QuerySyntaxError):
            parse_query("SELECT x, AVG(wp) FROM V1")

    def test_group_by_without_aggregate_rejected(self):
        with pytest.raises(QuerySyntaxError):
            parse_query("SELECT x FROM V1 GROUP BY x")

    def test_sum_star_rejected(self):
        with pytest.raises(QuerySyntaxError):
            parse_query("SELECT SUM(*) FROM V1")


class TestErrors:
    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "SELECT",
            "SELECT * FROM",
            "SELECT * T1",
            "FROM T1",
            "SELECT * FROM T1 WHERE",
            "SELECT * FROM T1 WHERE x",
            "SELECT * FROM T1 WHERE x IN [1, 2",
            "SELECT * FROM T1 WHERE x IN [5, 2]",  # empty range
            "SELECT * FROM T1 WHERE x ~ 2",
            "SELECT * FROM T1 trailing",
            "SELECT * FROM T1 GROUP x",
            "SELECT AVG(wp FROM V1",
            "SELECT * FROM T1 WHERE x = y",  # rhs must be a number
            "SELECT * FROM SELECT",  # keyword as identifier
        ],
    )
    def test_syntax_errors(self, bad):
        with pytest.raises(QuerySyntaxError):
            parse_query(bad)

    def test_unexpected_character(self):
        with pytest.raises(QuerySyntaxError, match="unexpected character"):
            parse_query("SELECT * FROM T1 WHERE x @ 2")
