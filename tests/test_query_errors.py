"""Bad literals and unknown names raise ``QueryError`` before the engine
touches the synopsis."""
import dataclasses
import math

import numpy as np
import pytest

from repro.core.engine import PHEngine
from repro.queries import Cond, Group, Query, QueryError

BAD_LITERALS = [math.nan, math.inf, -math.inf, np.float64("nan")]


def test_query_error_is_a_value_error():
    assert issubclass(QueryError, ValueError)


@pytest.mark.parametrize("op", ["<", "<=", ">", ">="])
@pytest.mark.parametrize("v", BAD_LITERALS)
def test_non_finite_range_literal(toy_engine, op, v):
    with pytest.raises(QueryError, match="not finite"):
        toy_engine.execute(Query("COUNT", "a", Cond("b", op, v)))


@pytest.mark.parametrize("op", ["=", "!="])
@pytest.mark.parametrize("v", BAD_LITERALS)
def test_non_finite_equality_literal(toy_engine, op, v):
    with pytest.raises(QueryError, match="not finite"):
        toy_engine.execute(Query("SUM", "a", Cond("a", op, v)))


def test_non_finite_literal_deep_in_a_tree(toy_engine):
    where = Group("and", (Cond("a", "<", 500.0), Group("or", (Cond("b", "=", math.inf),))))
    with pytest.raises(QueryError):
        toy_engine.execute(Query("AVG", "c", where))


def test_literal_that_overflows_the_encoding(toy_ph, toy_infos):
    scaled = dataclasses.replace(toy_infos[0], kind="float", scale=1000.0)
    eng = PHEngine(toy_ph, [scaled, *toy_infos[1:]])
    with pytest.raises(QueryError, match="out of range"):
        eng.execute(Query("COUNT", "a", Cond("a", "<", 1e306)))


def test_literal_of_the_wrong_type(toy_engine):
    with pytest.raises(QueryError, match="bad literal"):
        toy_engine.execute(Query("COUNT", "a", Cond("a", "<", "not a number")))


@pytest.mark.parametrize(
    "q",
    [
        Query("COUNT", "a", Cond("nope", "<", 5.0)),
        Query("SUM", "nope", Cond("a", "<", 5.0)),
        Query("MAX", "nope"),
    ],
)
def test_unknown_column(toy_engine, q):
    with pytest.raises(QueryError, match="unknown column 'nope'"):
        toy_engine.execute(q)


def test_unknown_group_by_column(toy_engine):
    with pytest.raises(QueryError, match="unknown column 'nope'"):
        toy_engine.execute_grouped(Query("COUNT", "a", group_by="nope"))


def test_group_by_without_a_group_column(toy_engine):
    with pytest.raises(QueryError, match="needs a GROUP BY column"):
        toy_engine.execute_grouped(Query("COUNT", "a"))


def test_group_by_on_a_non_categorical_column(toy_engine):
    with pytest.raises(QueryError, match="not categorical"):
        toy_engine.execute_grouped(Query("COUNT", "a", group_by="c"))


def test_unknown_function_and_operator(toy_engine):
    with pytest.raises(QueryError, match="unknown function"):
        toy_engine.execute(Query("MODE", "a"))
    with pytest.raises(QueryError, match="unknown operator"):
        toy_engine.execute(Query("COUNT", "a", Cond("a", "<>", 5.0)))


def test_valid_queries_still_answer(toy_engine):
    r = toy_engine.execute(Query("COUNT", "a", Cond("b", "<", 500.0)))
    assert r.est is not None and r.lo <= r.est <= r.hi


def _bad_group(field, value):
    """A ``Group`` that ``__post_init__`` would reject, as ``python -O``
    (which skips its assert) lets one through."""
    g = Group("and", (Cond("a", "<", 500.0), Cond("b", ">", 100.0)))
    object.__setattr__(g, field, value)
    return g


@pytest.mark.parametrize(
    "where, match",
    [
        ("a < 500", "Cond/Group tree"),
        (_bad_group("kind", "xor"), "unknown group kind 'xor'"),
        (_bad_group("kind", "AND"), "unknown group kind 'AND'"),
        (_bad_group("children", ()), "empty condition group"),
        (Group("or", (Cond("c", "=", 1.0), _bad_group("children", ()))), "empty condition group"),
    ],
)
def test_malformed_where_tree(toy_engine, where, match):
    with pytest.raises(QueryError, match=match):
        toy_engine.execute(Query("COUNT", "a", where))


@pytest.mark.parametrize("order", [[0, 1], [0, 1, 2, 2], [1, 0, 2]])
def test_column_metadata_must_match_the_synopsis(toy_ph, toy_infos, order):
    with pytest.raises(ValueError, match="not the 3 synopsis columns in order"):
        PHEngine(toy_ph, [toy_infos[i] for i in order])
