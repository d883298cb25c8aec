"""Tests for the column-oriented private statistics client."""

import numpy as np
import pytest

from repro.datastore.table import Table
from repro.datastore.workload import WorkloadGenerator
from repro.spfe.table_client import PrivateTableClient


@pytest.fixture(scope="module")
def patients():
    generator = WorkloadGenerator("table-client")
    ages = generator.database(80, value_bits=8)
    pressures = generator.database(81, value_bits=8)
    table = Table(
        {"age": ages.values, "bp": pressures.values[:80]}, value_bits=8
    )
    selection = generator.random_selection(80, 25)
    return table, selection


@pytest.fixture()
def client(patients, ctx):
    table, _ = patients
    return PrivateTableClient(table, ctx)


def masked(table, column, selection):
    values = np.array(table.column(column).values, dtype=float)
    return values[np.array(selection, dtype=bool)]


class TestSingleColumn:
    def test_sum(self, patients, client):
        table, selection = patients
        result = client.sum("age", selection)
        assert result.value == masked(table, "age", selection).sum()

    def test_mean(self, patients, client):
        table, selection = patients
        assert client.mean("age", selection).value == pytest.approx(
            masked(table, "age", selection).mean()
        )

    def test_variance_and_std(self, patients, client):
        table, selection = patients
        expected = masked(table, "bp", selection)
        assert client.variance("bp", selection).value == pytest.approx(
            expected.var()
        )
        assert client.std("bp", selection, ddof=1).value == pytest.approx(
            expected.std(ddof=1)
        )

    def test_weighted_average(self, patients, client):
        table, _ = patients
        weights = [i % 3 for i in range(len(table))]
        result = client.weighted_average("age", weights)
        assert result.value == pytest.approx(
            np.average(table.column("age").values, weights=weights)
        )

    def test_unknown_column(self, patients, client):
        from repro.exceptions import DatabaseError

        _, selection = patients
        with pytest.raises(DatabaseError):
            client.mean("height", selection)


class TestTwoColumn:
    def test_covariance(self, patients, client):
        table, selection = patients
        result = client.covariance("age", "bp", selection)
        x = masked(table, "age", selection)
        y = masked(table, "bp", selection)
        assert result.value == pytest.approx(np.cov(x, y, ddof=0)[0][1])

    def test_correlation_self(self, patients, client):
        _, selection = patients
        assert client.correlation("age", "age", selection).value == pytest.approx(
            1.0
        )


class TestDescribe:
    def test_describe_matches_components(self, patients, client):
        table, selection = patients
        summary = client.describe("age", selection)
        values = masked(table, "age", selection)
        assert summary["count"] == len(values)
        assert summary["mean"] == pytest.approx(values.mean())
        assert summary["variance"] == pytest.approx(values.var())
        assert summary["std"] == pytest.approx(values.std())
        assert len(summary["runs"]) == 2  # one sum + one squared sum
