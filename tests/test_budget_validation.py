"""Query budgets accept only ``None``, a ``QueryBudget`` or an integer limit.

A float, string or bool limit used to be installed as-is and fail at the
first query (``'float' object has no attribute 'can_spend'``), or — for
``QueryBudget(2.5)`` — allow two queries without ever reporting
``exhausted``.  Every such value now raises ``InvalidConfigurationError`` at
construction, on every path that builds a budget.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import SamplingSession
from repro.api import GraphAPI, QueryBudget, build_api
from repro.api.backend import InMemoryBackend
from repro.api.middleware import BackendAPI, BudgetLayer
from repro.exceptions import InvalidConfigurationError, QueryBudgetExceededError

INVALID_LIMITS = [2.5, 3.0, "3", True, False, -1, np.int64(-2), np.float64(4.0), [3]]


@pytest.mark.parametrize("limit", INVALID_LIMITS, ids=repr)
def test_query_budget_rejects_non_integer_limits(limit):
    with pytest.raises(InvalidConfigurationError):
        QueryBudget(limit)


def test_invalid_configuration_error_is_a_value_error():
    with pytest.raises(ValueError):
        QueryBudget(2.5)


@pytest.mark.parametrize("limit", [0, 3, np.int64(3), np.int32(3), np.uint8(3)], ids=repr)
def test_integral_limits_are_converted_to_int(limit):
    budget = QueryBudget(limit)
    assert budget.limit == int(limit)
    assert type(budget.limit) is int


def test_none_is_unlimited():
    budget = QueryBudget(None)
    assert budget.unlimited and budget.limit is None and not budget.exhausted


def test_converted_limit_reports_exhausted():
    budget = QueryBudget(np.int64(2))
    budget.spend(2)
    assert budget.exhausted
    with pytest.raises(QueryBudgetExceededError):
        budget.spend(1)


@pytest.mark.parametrize("limit", INVALID_LIMITS, ids=repr)
def test_budget_layer_rejects_non_integer_limits(attributed_graph, limit):
    core = BackendAPI(InMemoryBackend(attributed_graph))
    with pytest.raises(InvalidConfigurationError):
        BudgetLayer(core, limit)


@pytest.mark.parametrize("limit", INVALID_LIMITS, ids=repr)
def test_build_api_rejects_non_integer_budgets(attributed_graph, limit):
    with pytest.raises(InvalidConfigurationError):
        build_api(attributed_graph, budget=limit)


@pytest.mark.parametrize("limit", INVALID_LIMITS, ids=repr)
def test_session_budget_rejects_non_integer_budgets(attributed_graph, limit):
    session = SamplingSession(attributed_graph).budget(limit)
    with pytest.raises(InvalidConfigurationError):
        session.api


def test_budget_layer_accepts_none_budget_and_integers(attributed_graph):
    core = BackendAPI(InMemoryBackend(attributed_graph))
    assert BudgetLayer(core, None).budget.unlimited
    shared = QueryBudget(4)
    assert BudgetLayer(core, shared).budget is shared
    assert BudgetLayer(core, np.int64(4)).budget.limit == 4


def test_numpy_budget_drives_a_walk(attributed_graph):
    session = SamplingSession(attributed_graph).budget(np.int64(3)).walker("srw", seed=1)
    result = session.run(start=0)
    assert result.stopped_by_budget
    assert session.unique_queries == 3


def test_graph_api_exposes_the_layer_budget(attributed_graph):
    api = GraphAPI(attributed_graph, budget=3)
    assert isinstance(api.budget, QueryBudget) and api.budget.limit == 3
    with pytest.raises(InvalidConfigurationError):
        GraphAPI(attributed_graph, budget=2.5)
