"""Print the lines of the package that the tests never run: coverage, with the stdlib only.

Usage:

    python3 scripts/uncovered_lines.py [PYTEST ARGS...]

Runs pytest in this process (by default the whole tier-1 suite, quiet)
under a ``sys.settrace`` hook that follows only frames whose code lives in
``src/welfareax``, so the rest of the run pays the tracing cost only once
per call. A module's executable lines are the lines of every code object
compiled from its source. The script prints, per module, each executable
line that no test ran, with its text, and then the total. Subprocesses
import the same sources but are not traced, so code that only they run
(the console entry point) is reported too. The traced run takes about 3.5
times as long as a plain one, and a test that times itself may fail under
it; the lines are reported all the same.
"""

from __future__ import annotations

import os
import sys
import threading
import types
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "welfareax"


def executable_lines(path: Path) -> set[int]:
    """The lines of every code object compiled from the module at path."""
    lines = set()
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        # line 0 is where a module's code starts, not a line of its source
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(const for const in code.co_consts if isinstance(const, types.CodeType))
    return lines


def traced_run(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit code, and the lines run in each package file, by file name."""
    prefix = str(PACKAGE) + "/"
    ran: dict[str, set[int]] = defaultdict(set)

    def local(frame, event, arg):
        ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    sys.path.insert(0, str(ROOT / "src"))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    )
    import pytest

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return code, ran


def main(argv: list[str]) -> int:
    tier1 = ["-q", "-p", "no:cacheprovider", str(ROOT / "tests"), str(ROOT / "perfbench")]
    code, ran = traced_run(argv or tier1)
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        missed = sorted(executable_lines(path) - ran.get(str(path), set()))
        if not missed:
            continue
        text = path.read_text(encoding="utf-8").splitlines()
        print(f"{path.relative_to(ROOT)}: {len(missed)} lines")
        for line in missed:
            print(f"  {line:5d}  {text[line - 1].strip()}")
        total += len(missed)
    print(f"{total} executable lines never ran (pytest exit code {code})")
    return 0 if code == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
