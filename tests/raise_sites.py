"""Pytest plugin: every `raise VerificationError` in the package is reached.

    PYTHONPATH=src:tests python -m pytest -q -p raise_sites

While the tests run, the plugin records the source line of every
VerificationError the package constructs.  At the end it scans the
package's modules with `ast` for `raise VerificationError` statements and
fails the session, naming each one, if a test never reached it.  Only a run
of the whole suite means anything: a subset leaves raises unreached.
Raises reached only inside a subprocess are not seen.
"""

import ast
import sys
from pathlib import Path

import iterwreath
from iterwreath.structure import VerificationError

PACKAGE = Path(iterwreath.__file__).resolve().parent
_reached = set()
_init = VerificationError.__init__


def _recording_init(self, *args):
    caller = sys._getframe(1)  # the frame that raises
    _reached.add((Path(caller.f_code.co_filename).resolve(), caller.f_lineno))
    _init(self, *args)


def raise_sites():
    """(path, first line, last line) of each raise of a VerificationError."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            exc = node.exc if isinstance(node, ast.Raise) else None
            if isinstance(exc, ast.Call):
                exc = exc.func
            if isinstance(exc, ast.Name) and exc.id == "VerificationError":
                yield path, node.lineno, node.end_lineno


def unreached_sites():
    return sorted((path, first) for path, first, last in raise_sites()
                  if not any((path, line) in _reached
                             for line in range(first, last + 1)))


def pytest_configure(config):
    VerificationError.__init__ = _recording_init


def pytest_unconfigure(config):
    VerificationError.__init__ = _init


def pytest_sessionfinish(session, exitstatus):
    unreached = unreached_sites()
    if not unreached:
        return
    reporter = session.config.pluginmanager.get_plugin("terminalreporter")
    reporter.line("")  # end the progress line
    reporter.write_sep("=", "raise VerificationError never reached")
    for path, line in unreached:
        reporter.write_line(f"{path.relative_to(PACKAGE.parent)}:{line}")
    session.exitstatus = 1
