"""Line census: which lines of ``src/bipcover`` does the Tier-1 suite never run?

Runs pytest in-process under a ``sys.settrace`` line collector (stdlib
only) and prints every executable line of ``src/bipcover`` that no test
reached, as ``file:line: source``, followed by the totals.  Executable
lines are the line numbers of the modules' compiled code objects.

    python tools/line_census.py [pytest args...]

Extra arguments go to pytest (default: ``-q -p no:cacheprovider``).  The
script lives outside ``tests/`` and is not part of Tier-1: under the
tracer the suite runs about four times slower.  The exit status is
pytest's.

The census counts only the tests that ran: with ``-x`` pytest stops at
the first failure and the report covers a partial suite.  Wall-time
bounds, such as ``test_edge_map_cost_follows_colours_in_use``'s, can
fail under the tracer's slowdown; the line report stays valid, as every
test still runs.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "bipcover"


def executable_lines(path: Path) -> set[int]:
    """Line numbers that the compiled code of ``path`` can run."""
    lines: set[int] = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def run_traced(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest in-process with line tracing of the package's files:
    (pytest exit status, {file name: lines run})."""
    prefix = str(PACKAGE) + "/"
    hit: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            hit[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def global_(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        hit.setdefault(name, set()).add(frame.f_lineno)
        return local

    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    sys.settrace(global_)
    threading.settrace(global_)
    try:
        status = pytest.main(pytest_args, plugins=[])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), hit


def main(argv: list[str]) -> int:
    status, hit = run_traced(argv or ["-q", "-p", "no:cacheprovider"])
    total = missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        source = path.read_text(encoding="utf-8").splitlines()
        never = sorted(lines - hit.get(str(path), set()))
        total += len(lines)
        missed += len(never)
        for line in never:
            print(f"src/bipcover/{path.name}:{line}: {source[line - 1].strip()}")
    print(f"{missed} of {total} executable lines of src/bipcover never ran "
          f"(pytest exit status {status})")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
