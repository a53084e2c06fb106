"""Reach check: which executable lines of ``src/conductor/`` tier-1 never runs.

Runs pytest in-process from the repository root with no path arguments,
collecting what the tier-1 command collects, under a line tracer installed
through ``sys.settrace`` and ``threading.settrace`` (the worker threads of
``run_batch`` are traced too). A module's executable lines are the line
numbers of every code object compiled from its source, taken recursively
from ``co_lines()``. Writes ``REACH.json`` at the repository root: per
module, the executable lines, the lines run, and each missed line with its
text (and its allowlist reason, if it has one).

A missed line is a test to write, dead code to delete, or an ``ALLOWLIST``
entry. Entries are keyed by module and the line's stripped text, so edits
elsewhere in a file do not shift them.

Run from the repository root, standard library plus pytest only:

    python scripts/reach.py

It exits with pytest's code if a test fails, else 1 if a missed line is
outside ALLOWLIST or an entry matches no missed line, else 0. ``run_pytest``
is the in-process runner, importable by other scripts that drive tier-1.
"""

from __future__ import annotations

import json
import os
import sys
import threading
from pathlib import Path
from types import CodeType
from typing import Callable, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "conductor"
REPORT = ROOT / "REACH.json"

# (module, stripped line text) -> why no tier-1 test runs the line.
ALLOWLIST: dict[tuple[str, str], str] = {
    ("conductor/backend.py", "raise NotImplementedError"): (
        "the Backend interface: every backend, perfbench's ScriptedBackend "
        "included, subclasses it and overrides complete"
    ),
    ("conductor/data.py", "from importlib.resources.abc import Traversable"): (
        "imported under TYPE_CHECKING, for annotations only"
    ),
    ("conductor/cli.py", "sys.exit(main())"): (
        "runs only when cli.py is executed as a script; tests call main()"
    ),
    (
        "conductor/data.py",
        'raise TypeError(f"cannot serialize plan of type {type(plan).__name__}")',
    ): (
        "a directly built RunRecord with a foreign plan must not write a "
        "record that cannot be loaded back"
    ),
}


def run_pytest(args: Sequence[str]) -> int:
    """pytest's exit code for `args`, run in this process from the
    repository root with ``src`` importable, as the tier-1 command runs."""
    import pytest

    os.chdir(ROOT)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    return int(pytest.main(list(args)))


def executable_lines(path: Path) -> set[int]:
    """Every line number that some code object compiled from `path` maps
    an instruction to."""
    lines: set[int] = set()
    pending: list[CodeType] = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while pending:
        code = pending.pop()
        # Line 0 is a module's RESUME, which no line event reports.
        lines.update(line for _, _, line in code.co_lines() if line)
        pending.extend(c for c in code.co_consts if isinstance(c, CodeType))
    return lines


def traced_run(args: Sequence[str], paths: Sequence[Path]) -> tuple[int, dict[Path, set[int]]]:
    """pytest's exit code for `args` and, per file in `paths`, the lines run."""
    wanted = {p.resolve(): set() for p in paths}
    by_filename: dict[str, set[int] | None] = {}

    def trace_call(frame, event, arg) -> Callable | None:
        filename = frame.f_code.co_filename
        ran = by_filename.get(filename, False)
        if ran is False:
            ran = by_filename[filename] = wanted.get(Path(filename).resolve())
        if ran is None:
            return None
        add = ran.add

        def trace_line(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return trace_line

        return trace_line

    threading.settrace(trace_call)
    sys.settrace(trace_call)
    try:
        code = run_pytest(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return code, wanted


def reach_report(ran: dict[Path, set[int]]) -> dict:
    """REACH.json's content for the lines `ran` per file."""
    modules = {}
    for path in sorted(ran):
        name = path.relative_to(SRC).as_posix()
        source = path.read_text(encoding="utf-8").splitlines()
        executable = executable_lines(path)
        missed = []
        for line in sorted(executable - ran[path]):
            text = source[line - 1].strip()
            entry = {"line": line, "text": text}
            reason = ALLOWLIST.get((name, text))
            if reason:
                entry["allowed"] = reason
            missed.append(entry)
        modules[name] = {
            "executable": sorted(executable),
            "run": sorted(executable & ran[path]),
            "missed": missed,
        }
    return {
        "python": f"{sys.version_info.major}.{sys.version_info.minor}",
        "executable_lines": sum(len(m["executable"]) for m in modules.values()),
        "missed_lines": sum(len(m["missed"]) for m in modules.values()),
        "modules": modules,
    }


def violations(report: dict) -> list[str]:
    """Missed lines outside ALLOWLIST, and ALLOWLIST entries that match no
    missed line."""
    problems = []
    matched = set()
    for name, module in report["modules"].items():
        for entry in module["missed"]:
            if "allowed" in entry:
                matched.add((name, entry["text"]))
            else:
                problems.append(f"{name}:{entry['line']}: never run: {entry['text']}")
    for name, text in sorted(ALLOWLIST.keys() - matched):
        problems.append(f"{name}: allowlist entry matches no missed line: {text}")
    return problems


def main() -> int:
    code, ran = traced_run(
        ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"],
        sorted(PACKAGE.glob("*.py")),
    )
    report = reach_report(ran)
    REPORT.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(
        f"{REPORT.name}: {report['executable_lines']} executable lines, "
        f"{report['missed_lines']} missed"
    )
    if code != 0:
        print(f"pytest exited {code}; the reach above is incomplete", file=sys.stderr)
        return code
    problems = violations(report)
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
