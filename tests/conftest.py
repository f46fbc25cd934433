import contextlib
import io
import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

from _acceptance_registry import RESULTS  # noqa: E402


def pytest_terminal_summary(terminalreporter):
    if not RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number, description, ok in sorted(RESULTS):
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"[{status}] criterion {number}: {description}")


class _Capture(io.TextIOBase):
    """A text stream that keeps what is written to it and also appends it to
    a list shared with the other stream, in the order written."""

    def __init__(self, both: list):
        self.parts = []
        self.both = both

    def write(self, text):
        self.parts.append(text)
        self.both.append(text)
        return len(text)


class CliResult:
    """One in-process run of the command line.

    `exit_code` is the code the run exited with (0 when it returned), and
    `exception` the SystemExit of a nonzero exit, or any other exception the
    run raised, which is caught and then counts as exit code 1. `stdout_bytes`
    is stdout as UTF-8 bytes; `stdout`, `stderr` and `output` (both streams
    interleaved in the order written) are text with CRLF read as LF."""

    def __init__(self, exit_code, exception, stdout, stderr, output):
        self.exit_code = exit_code
        self.exception = exception
        self.stdout_bytes = stdout.encode()
        self.stdout = stdout.replace("\r\n", "\n")
        self.stderr = stderr.replace("\r\n", "\n")
        self.output = output.replace("\r\n", "\n")


def run_cli(args) -> CliResult:
    """Run `wittforge.cli.main` on `args` with stdout and stderr captured."""
    from wittforge.cli import main
    both = []
    out, err = _Capture(both), _Capture(both)
    code, exception = 0, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main(list(args))
        except SystemExit as e:
            code = 0 if e.code is None else e.code
            exception = e if code != 0 else None
        except Exception as e:
            code, exception = 1, e
    return CliResult(code, exception, "".join(out.parts),
                     "".join(err.parts), "".join(both))
