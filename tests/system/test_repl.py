"""End-to-end tests of the IQMS REPL with scripted input."""

import io

import pytest

from repro.system.repl import repl
from repro.system.session import IqmsSession


def drive(script: str, session=None) -> str:
    stdin = io.StringIO(script)
    stdout = io.StringIO()
    repl(session=session, stdin=stdin, stdout=stdout)
    return stdout.getvalue()


class TestDotCommands:
    def test_help(self):
        output = drive(".help\n.quit\n")
        assert "MINE PERIODS" in output

    def test_quit(self):
        assert drive(".quit\n").endswith("bye\n")

    def test_eof_terminates(self):
        assert "bye" in drive("")

    def test_unknown_command(self):
        assert "unknown command" in drive(".frobnicate\n.quit\n")

    def test_datasets_empty(self):
        assert "no datasets" in drive(".datasets\n.quit\n")

    def test_demo_and_datasets(self):
        output = drive(".demo\n.datasets\n.quit\n")
        assert "sales" in output

    def test_load_usage(self):
        assert "usage" in drive(".load onlyname\n.quit\n")

    def test_load_missing_file_reports_error(self, tmp_path):
        missing = tmp_path / "missing.csv"
        output = drive(f".load x {missing}\n.datasets\n.quit\n")
        assert "error:" in output and "missing.csv" in output
        # The session survived the OS error and kept reading commands.
        assert "no datasets" in output
        assert output.endswith("bye\n")

    def test_engine_shows_current_and_available(self):
        output = drive(".engine\n.quit\n")
        assert "engine: auto" in output
        assert "vertical" in output

    def test_engine_sets_backend(self):
        session = IqmsSession()
        output = drive(".engine vertical\n.engine\n.quit\n", session=session)
        assert "engine: vertical" in output
        assert session.engine == "vertical"

    def test_engine_unknown_backend_reports_error(self):
        output = drive(".engine btree\n.quit\n")
        assert "unknown counting backend" in output

    def test_engine_via_statement(self):
        session = IqmsSession()
        drive("SET ENGINE hashtree;\n.quit\n", session=session)
        assert session.engine == "hashtree"
        drive("SET ENGINE OFF;\n.quit\n", session=session)
        assert session.engine == "auto"

    def test_slow_empty(self):
        output = drive(".slow\n.quit\n")
        assert "no slow statements captured" in output
        assert "threshold 1s" in output

    def test_slow_lists_ranked_captures(self):
        session = IqmsSession()
        # An eager recorder so even trivial statements are captured.
        session.flight_recorder.threshold_seconds = 0.0
        output = drive(
            ".demo\nSET TRACE ON;\n"
            "MINE PERIODS FROM sales AT GRANULARITY month "
            "WITH SUPPORT >= 0.2, CONFIDENCE >= 0.6 HAVING COVERAGE >= 2;\n"
            ".slow\n.quit\n",
            session=session,
        )
        assert "MINE PERIODS" in output
        assert "[traced]" in output
        assert "statement(s) captured" in output
        entries = session.slow_queries()["entries"]
        durations = [entry["duration_seconds"] for entry in entries]
        assert durations == sorted(durations, reverse=True)
        mine = next(
            e for e in entries if e["statement"].startswith("MINE PERIODS")
        )
        assert mine["trace"]["spans"]

    def test_slow_mentioned_in_help(self):
        assert ".slow" in drive(".help\n.quit\n")


class TestStatements:
    def test_error_reported_not_raised(self):
        output = drive("MINE PERIODS FROM nowhere AT GRANULARITY month "
                       "WITH SUPPORT >= 0.2, CONFIDENCE >= 0.6;\n.quit\n")
        assert "error:" in output

    def test_multiline_statement(self, seasonal_data):
        session = IqmsSession()
        session.load_database("sales", seasonal_data.database)
        output = drive(
            "MINE PERIODS FROM sales AT GRANULARITY month\n"
            "  WITH SUPPORT >= 0.2, CONFIDENCE >= 0.6\n"
            "  HAVING COVERAGE >= 2, SIZE <= 2;\n"
            ".table\n"
            ".log\n"
            ".quit\n",
            session=session,
        )
        assert "valid_periods" in output
        assert "season0_a" in output
        assert "[ad hoc mining]" in output

    def test_sql_through_repl(self, seasonal_data):
        session = IqmsSession()
        session.load_database("sales", seasonal_data.database)
        output = drive(
            "SELECT COUNT(DISTINCT tid) AS n FROM transactions;\n.quit\n",
            session=session,
        )
        assert str(len(seasonal_data.database)) in output

    def test_filter_command(self, seasonal_data):
        session = IqmsSession()
        session.load_database("sales", seasonal_data.database)
        output = drive(
            "MINE PERIODS FROM sales AT GRANULARITY month "
            "WITH SUPPORT >= 0.2, CONFIDENCE >= 0.6 HAVING SIZE <= 2;\n"
            ".filter season0_a\n"
            ".quit\n",
            session=session,
        )
        assert output.count("season0_a") >= 2


class TestExportCommand:
    def test_export_csv(self, seasonal_data, tmp_path):
        session = IqmsSession()
        session.load_database("sales", seasonal_data.database)
        out = tmp_path / "report.csv"
        output = drive(
            "MINE PERIODS FROM sales AT GRANULARITY month "
            "WITH SUPPORT >= 0.25, CONFIDENCE >= 0.6 HAVING SIZE <= 2;\n"
            f".export {out}\n"
            ".quit\n",
            session=session,
        )
        assert "wrote" in output
        assert out.read_text().startswith("antecedent,")

    def test_export_without_report(self):
        output = drive(".export /tmp/nope.csv\n.quit\n")
        # surfaces the library error message rather than a traceback
        assert "no mining report" in output or "error" in output

    def test_export_usage(self):
        assert "usage" in drive(".export\n.quit\n")

    def test_export_to_missing_directory_reports_error(self, seasonal_data, tmp_path):
        session = IqmsSession()
        session.load_database("sales", seasonal_data.database)
        out = tmp_path / "absent" / "report.csv"
        output = drive(
            "MINE PERIODS FROM sales AT GRANULARITY month "
            "WITH SUPPORT >= 0.25, CONFIDENCE >= 0.6 HAVING SIZE <= 2;\n"
            f".export {out}\n"
            ".table\n"
            ".quit\n",
            session=session,
        )
        assert "error:" in output and "absent" in output
        assert "season0_a" in output.split("error:")[1]  # .table still ran
        assert output.endswith("bye\n")


class TestServe:
    def test_serve_and_stop(self):
        session = IqmsSession()
        output = drive(".demo\n.serve\n.serve\n.serve stop\n.serve stop\n.quit\n", session=session)
        assert "serving on http://" in output
        assert "already serving" in output
        assert "stopped serving" in output
        assert "not serving" in output
        assert session.serving_url is None  # .quit also shuts the server down

    def test_serve_usage(self):
        assert "usage" in drive(".serve not-a-port\n.quit\n")

    def test_serve_port_out_of_range_shows_usage(self):
        session = IqmsSession()
        output = drive(".serve 70000\n.serve stop\n.quit\n", session=session)
        assert "usage: .serve" in output
        assert "not serving" in output
        assert session.serving_url is None

    def test_serve_answers_http(self, seasonal_data):
        import json
        import re
        import urllib.request

        session = IqmsSession()
        session.load_database("sales", seasonal_data.database)
        output = drive(".serve\n.quit\n", session=session)
        url = re.search(r"serving on (http://\S+)", output).group(1)
        # The REPL quit stopped the server; serve again programmatically
        # to check the endpoint actually answers while it is up.
        url = session.serve()
        try:
            with urllib.request.urlopen(url + "/v1/status", timeout=30) as response:
                document = json.loads(response.read())
            assert document["service"] == "repro-iqms"
            assert document["store"]["transactions"] == len(seasonal_data.database)
        finally:
            session.stop_serving()
