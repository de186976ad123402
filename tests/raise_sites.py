"""Pytest plugin: every raise of a package exception in the package is reached.

    PYTHONPATH=src:tests python -m pytest -q -p raise_sites

The package's exception classes are the six in CLASSES.  While the tests
run, the plugin records the source line that constructs each instance of
one of them.  At the end it scans the package's modules with `ast` for
`raise` statements of these classes and fails the session, naming each one,
if a test never reached it.  Only a run of the whole suite means anything:
a subset leaves raises unreached.  Raises reached only inside a subprocess
are not seen, and raises of builtin exceptions are not recorded.
"""

import ast
import sys
from pathlib import Path

import iterwreath
from iterwreath.endo import HomSpaceEmpty
from iterwreath.structure import VerificationError
from iterwreath.treegroup import (LevelMismatch, LevelTooLarge,
                                  NotATreeAutomorphism, UsageError)

PACKAGE = Path(iterwreath.__file__).resolve().parent
CLASSES = (LevelMismatch, LevelTooLarge, UsageError, NotATreeAutomorphism,
           VerificationError, HomSpaceEmpty)
_reached = set()
_inits = {cls: cls.__init__ for cls in CLASSES}  # read before any is replaced


def _recording(init):
    def recording_init(self, *args):
        caller = sys._getframe(1)  # the frame that raises
        _reached.add((Path(caller.f_code.co_filename).resolve(), caller.f_lineno))
        init(self, *args)
    return recording_init


def raise_sites():
    """(path, first line, last line) of each raise of a class in CLASSES."""
    names = {cls.__name__ for cls in CLASSES}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            exc = node.exc if isinstance(node, ast.Raise) else None
            if isinstance(exc, ast.Call):
                exc = exc.func
            if isinstance(exc, ast.Name) and exc.id in names:
                yield path, node.lineno, node.end_lineno


def unreached_sites():
    return sorted((path, first) for path, first, last in raise_sites()
                  if not any((path, line) in _reached
                             for line in range(first, last + 1)))


def pytest_configure(config):
    for cls, init in _inits.items():
        cls.__init__ = _recording(init)


def pytest_unconfigure(config):
    for cls, init in _inits.items():
        cls.__init__ = init


def pytest_sessionfinish(session, exitstatus):
    unreached = unreached_sites()
    if not unreached:
        return
    reporter = session.config.pluginmanager.get_plugin("terminalreporter")
    reporter.line("")  # end the progress line
    reporter.write_sep("=", "raise of a package exception never reached")
    for path, line in unreached:
        reporter.write_line(f"{path.relative_to(PACKAGE.parent)}:{line}")
    session.exitstatus = 1
