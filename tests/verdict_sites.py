"""Pytest plugin: every subcommand that decides a claim renders a FAIL report,
and every `verify-all` check fails.

    PYTHONPATH=src:tests python -m pytest -q -p verdict_sites

While the tests run, the plugin wraps `cli.render` and records the
subcommand of every report it renders with verdict FAIL, so it also sees the
FAIL reports that `cli.main` builds from a VerificationError.  It also wraps
each check of `battery._CHECKS`, in the list and under its module name, and
records the checks that return `passed` false or raise a VerificationError,
as `verify-all` reads them.  At the end it fails the session, naming each
one, if a subcommand other than those in INFO_ONLY never rendered FAIL or a
check never failed.  Only a run of the whole suite means anything: a subset
leaves verdicts unread.  Reports rendered and checks run only inside a
subprocess are not seen.
"""

from iterwreath import battery, cli
from iterwreath.structure import VerificationError

INFO_ONLY = {"class-count"}  # reports a value and decides no claim
_failed = set()
_failed_checks = set()
_render = cli.render
_checks = list(battery._CHECKS)


def _recording_render(report, fmt):
    if report.verdict == "FAIL":
        _failed.add(report.subcommand)
    return _render(report, fmt)


def _recording(name, check):
    def recording_check(*args):
        try:
            ok, detail = check(*args)
        except VerificationError:
            _failed_checks.add(name)
            raise
        if not ok:
            _failed_checks.add(name)
        return ok, detail
    return recording_check


def never_failed():
    return sorted(set(cli._COMMANDS) - INFO_ONLY - _failed)


def checks_never_failed():
    return [name for name, _ in _checks if name not in _failed_checks]


def pytest_configure(config):
    cli.render = _recording_render
    battery._CHECKS[:] = [(name, _recording(name, check))
                          for name, check in _checks]
    for (_, check), (_, wrapped) in zip(_checks, battery._CHECKS):
        setattr(battery, check.__name__, wrapped)


def pytest_unconfigure(config):
    cli.render = _render
    battery._CHECKS[:] = _checks
    for _, check in _checks:
        setattr(battery, check.__name__, check)


def pytest_sessionfinish(session, exitstatus):
    missing, unfailed = never_failed(), checks_never_failed()
    if not missing and not unfailed:
        return
    reporter = session.config.pluginmanager.get_plugin("terminalreporter")
    reporter.line("")  # end the progress line
    if missing:
        reporter.write_sep("=", "subcommand never rendered a FAIL report")
        for command in missing:
            reporter.write_line(command)
    if unfailed:
        reporter.write_sep("=", "verify-all check never failed")
        for name in unfailed:
            reporter.write_line(name)
    session.exitstatus = 1
