"""Digest of the CLI's observable behaviour on a fixed command list.

Runs every row of the CLI case table, tests/cli_cases.py, in order and
in-process through `momprop.cli.main`, on the table's input files written
into a temporary directory, and prints one line per row:
its label, exit code, and the first 16 hex digits of the sha256 of its
stdout (followed by the files it wrote through `--out` and
`--density-out`) and of its stderr. A command that raises instead of
exiting prints `rc=traceback`, with the exception's type and message
added to its stderr. The temporary directory's path is
replaced by `TMP`, and every `wall_time_s` value and the file and line of
every Python warning are masked before hashing, so two trees that behave
the same print the same lines. Each command runs under its own warnings
filter, so it shows every warning it raises, once per source line, whichever
commands ran before it. Run it on two trees and diff the output to
see which commands changed behaviour.

Usage: python scripts/cli_digest.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import re
import sys
import tempfile
import warnings
from pathlib import Path

from momprop import cli

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
import cli_cases  # noqa: E402

_WALL = re.compile(r'("wall_time_s": )[^,\n}]+|(wall time: )\S+ s')
# a Python warning's "file:line: category: message" and its source line
_WARNING = re.compile(r"^\S+\.py:\d+: (\w+: .*)\n  .*\n", re.M)


def _mask(text: str, tmp: str) -> str:
    """text without what moves between runs and trees that behave alike:
    wall times, the temporary directory and where a warning was raised."""
    text = _WALL.sub(lambda m: (m.group(1) or m.group(2)) + "MASKED", text)
    return _WARNING.sub(r"\1\n", text).replace(tmp, "TMP")


def _run(argv: list[str], tmp: str) -> tuple[int | str, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        # each command shows its own warnings, whatever ran before it
        warnings.simplefilter("default")
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse's usage errors
            rc = exc.code
        except Exception as exc:  # a crash; the digest goes on
            rc = "traceback"
            err.write(f"{type(exc).__name__}: {exc}\n")
    for flag in ("--out", "--density-out"):
        path = Path(argv[argv.index(flag) + 1]) if flag in argv else None
        if path is not None and path.exists():
            out.write(f"--- {flag}\n{path.read_text()}")
    return rc, _mask(out.getvalue(), tmp), _mask(err.getvalue(), tmp)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        cli_cases.write_files(tmp)
        for case in cli_cases.CASES:
            argv = [cli_cases.resolve(a, tmp) for a in case.argv]
            rc, out, err = _run(argv, tmp)
            print(f"{case.label:46s} rc={rc} out={_sha(out)} err={_sha(err)}")


if __name__ == "__main__":
    main()
