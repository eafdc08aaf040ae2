"""List the lines of src/bundleconn that no tier-1 test executes.

    python tools/reach.py [pytest arguments]

Runs the tier-1 suite (pytest -q --continue-on-collection-errors, with
Hypothesis seeded so that two runs draw the same examples, plus any
arguments given) in this process under a sys.settrace line tracer that
watches only the files of src/bundleconn, then prints each executable line
that never ran as `path:line: source`. Executable lines are the line
starts of every code object compiled from a source file. Lines that no
in-process test can reach by design are listed in ALLOWED with the reason;
they are not printed, and an allowed line that did run is reported so the
list stays true. The exit status is 0 when nothing else is unreached.

Not a tier-1 step: tracing about doubles the run time.
"""

import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "bundleconn"

# (file, stripped source line) -> why no in-process test runs it
ALLOWED = {
    ("cli.py", "sys.exit(main())"):
        "the __main__ line: runs only as `python -m bundleconn.cli`",
    ("fields.py", "return np.stack(D), np.stack(vals)"):
        "fd_partials_at after its per-point loop: that loop meets the bits "
        "the batch met, so it raises first, unless a callable field changes "
        "its values between two calls at one point",
}


def executable_lines(path):
    """The line starts of every code object compiled from path."""
    lines, todo = set(), [compile(path.read_text(encoding="utf-8"),
                                  str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(const for const in code.co_consts
                    if isinstance(const, type(code)))
    return lines


def main(argv):
    files = {str(path): path for path in sorted(SRC.glob("*.py"))}
    reached = {name: set() for name in files}

    def local(frame, event, arg):
        if event == "line":
            reached[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename in reached else None

    # the tests' subprocesses import the same sources, untraced
    sys.path.insert(0, str(ROOT / "src"))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    import pytest

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "--continue-on-collection-errors",
                              "-p", "no:cacheprovider", "--hypothesis-seed=0",
                              str(ROOT / "tests"), *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    unreached, stale = 0, []
    for name, path in files.items():
        source = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(executable_lines(path) - reached[name]):
            text = source[line - 1].strip()
            if (path.name, text) in ALLOWED:
                continue
            unreached += 1
            print(f"{path.relative_to(ROOT)}:{line}: {text}")
        for line in sorted(reached[name]):
            if (path.name, source[line - 1].strip()) in ALLOWED:
                stale.append(f"{path.relative_to(ROOT)}:{line}")
    for where in stale:
        print(f"{where}: allowed as unreached, but a test ran it")
    print(f"{unreached} unreached lines in {SRC.relative_to(ROOT)} "
          f"(pytest exit status {int(status)})")
    return 1 if unreached or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
