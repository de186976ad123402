"""Pytest plugin: every subcommand that decides a claim renders a FAIL report.

    PYTHONPATH=src:tests python -m pytest -q -p verdict_sites

While the tests run, the plugin wraps `cli.render` and records the
subcommand of every report it renders with verdict FAIL, so it also sees the
FAIL reports that `cli.main` builds from a VerificationError.  At the end it
fails the session, naming each one, if a subcommand other than those in
INFO_ONLY never rendered FAIL.  Only a run of the whole suite means
anything: a subset leaves verdicts unread.  Reports rendered only inside a
subprocess are not seen.
"""

from iterwreath import cli

INFO_ONLY = {"class-count"}  # reports a value and decides no claim
_failed = set()
_render = cli.render


def _recording_render(report, fmt):
    if report.verdict == "FAIL":
        _failed.add(report.subcommand)
    return _render(report, fmt)


def never_failed():
    return sorted(set(cli._COMMANDS) - INFO_ONLY - _failed)


def pytest_configure(config):
    cli.render = _recording_render


def pytest_unconfigure(config):
    cli.render = _render


def pytest_sessionfinish(session, exitstatus):
    missing = never_failed()
    if not missing:
        return
    reporter = session.config.pluginmanager.get_plugin("terminalreporter")
    reporter.line("")  # end the progress line
    reporter.write_sep("=", "subcommand never rendered a FAIL report")
    for command in missing:
        reporter.write_line(command)
    session.exitstatus = 1
