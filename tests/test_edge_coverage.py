"""Edge-case coverage sweep for small surfaces not owned by other suites."""

import io

import pytest

from repro.cli import main
from repro.experiments.series import ExperimentSeries
from repro.experiments.tables import render_chart, render_table
from repro.net.codec import Frame, FrameType
from repro.spfe.base import SelectedSumBase


class TestCliDemo:
    def test_demo_runs_end_to_end(self):
        out = io.StringIO()
        assert main(["demo"], out=out) == 0
        text = out.getvalue()
        assert "sum = 55" in text
        assert "paper: ~20" in text


class TestRenderingEdges:
    def test_chart_with_all_zero_values(self):
        series = ExperimentSeries("z", "zeros", "n", "min", ["v"])
        series.add(1, v=0.0)
        series.add(2, v=0.0)
        text = render_chart(series, "v")
        assert "#" not in text  # no bars, no division by zero

    def test_table_with_no_points(self):
        series = ExperimentSeries("empty", "no data yet", "n", "min", ["v"])
        text = render_table(series)
        assert "empty" in text

    def test_value_formatting_ranges(self):
        series = ExperimentSeries("fmt", "formats", "n", "u", ["v"])
        series.add(1, v=0.0)
        series.add(2, v=0.1234)
        series.add(3, v=12.3)
        series.add(4, v=9999.0)
        text = render_table(series)
        assert "0.1234" in text
        assert "12.30" in text
        assert "9999" in text


class TestFrameProperties:
    def test_wire_bytes_includes_header(self):
        frame = Frame(FrameType.ERROR, b"12345")
        assert frame.wire_bytes == 16 + 5


class TestAbstractBase:
    def test_base_run_is_abstract(self):
        from repro.datastore.database import ServerDatabase

        with pytest.raises(NotImplementedError):
            SelectedSumBase().run(ServerDatabase([1]), [1])

    def test_scheme_interface_is_abstract(self):
        from repro.crypto.scheme import AdditiveHomomorphicScheme

        scheme = AdditiveHomomorphicScheme()
        for method, args in (
            ("generate", (128,)),
            ("plaintext_modulus", (None,)),
            ("ciphertext_size_bytes", (None,)),
            ("encrypt", (None, 1)),
            ("decrypt", (None, 1)),
            ("ciphertext_add", (None, 1, 2)),
            ("ciphertext_scale", (None, 1, 2)),
            ("identity", (None,)),
            ("rerandomize", (None, 1)),
        ):
            with pytest.raises(NotImplementedError):
                getattr(scheme, method)(*args)


class TestKeyPairContainer:
    def test_unpacking_and_repr(self):
        from repro.crypto.scheme import SchemeKeyPair

        pair = SchemeKeyPair("pub", "priv")
        public, private = pair
        assert (public, private) == ("pub", "priv")
        assert "pub" in repr(pair)


class TestExceptionHierarchy:
    def test_all_errors_are_repro_errors(self):
        import inspect

        from repro import exceptions

        roots = 0
        for name, obj in vars(exceptions).items():
            if inspect.isclass(obj) and issubclass(obj, Exception):
                if obj is exceptions.ReproError:
                    roots += 1
                    continue
                assert issubclass(obj, exceptions.ReproError), name
        assert roots == 1
