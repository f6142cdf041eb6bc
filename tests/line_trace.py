"""Line trace of the tier-1 suite: every executable line of src/mukaistab
must run.

    python tests/line_trace.py [extra pytest arguments]

Installs a stdlib ``sys.settrace`` hook that records the lines run in
``src/mukaistab`` frames, runs the suite in this process with
``--hypothesis-seed=0``, then lists every executable line that never ran
and exits 1 if there is one (or with pytest's own code if the suite
fails).  The hook goes in before ``mukaistab`` is imported, so module
level lines count.  The executable lines are the line numbers of the
compiled code objects, less the body of ``if __name__ == "__main__":``.
Lines run only in the suite's child processes are not seen.
"""

import ast
import pathlib
import sys
import threading

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "mukaistab"


def _code_lines(code):
    lines = {line for _, _, line in code.co_lines() if line}  # not None, 0
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _main_guard_lines(tree):
    """The body lines of each module-level ``if __name__ == "__main__":``."""
    return {line for node in tree.body
            if isinstance(node, ast.If)
            and ast.unparse(node.test) == "__name__ == '__main__'"
            for line in range(node.body[0].lineno, node.end_lineno + 1)}


def executable_lines(path):
    text = path.read_text()
    return (_code_lines(compile(text, str(path), "exec"))
            - _main_guard_lines(ast.parse(text)))


def main(argv):
    hits = {str(p): set() for p in sorted(SRC.glob("*.py"))}

    def trace(frame, event, arg):
        lines = hits.get(frame.f_code.co_filename)
        if lines is None:
            return None
        add = lines.add

        def local(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return local

        return local

    import pytest  # imports no mukaistab module

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(["-q", "--hypothesis-seed=0", str(ROOT / "tests"),
                            *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if code != 0:
        print(f"line trace: the suite failed (exit code {code})")
        return int(code)
    missed = total = 0
    for name, lines in hits.items():
        path = pathlib.Path(name)
        source, want = path.read_text().splitlines(), executable_lines(path)
        total += len(want)
        for line in sorted(want - lines):
            missed += 1
            print(f"{path.relative_to(ROOT)}:{line}: not run: "
                  f"{source[line - 1].strip()}")
    print(f"line trace: {total - missed} of {total} executable lines run")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
