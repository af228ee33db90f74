"""Byte-for-byte CLI contract: every command in the manifest still prints
what it printed when the manifest was written.

Each line of ``golden/cli_manifest.jsonl`` holds an argv, its exit code and
the sha256 of its stdout; for exit 1 also the sha256 of its stderr, which is
the package's own text.  For a usage error (exit 2) only the code is kept,
since argparse words its messages differently across Python versions.

A change that moves output on purpose rewrites the hashes with

    PYTHONPATH=src python tests/test_cli_manifest.py

and lists each changed command and the reason for it in CHANGES.md.  The
script prints how many lines changed and the argv of the first 20 before
it writes.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from hugelschaffer import cli

MANIFEST = Path(__file__).parent / "golden" / "cli_manifest.jsonl"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_line(argv: list[str]) -> dict:
    """The manifest line for ``argv``, run through ``cli.main`` in process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    line = {"argv": argv, "exit": code}
    if code != 2:
        line["stdout"] = _sha256(out.getvalue())
    if code == 1:
        line["stderr"] = _sha256(err.getvalue())
    return line


def _read() -> list[dict]:
    return [json.loads(text) for text in MANIFEST.read_text().splitlines()]


def test_every_manifest_line_is_unchanged():
    lines = _read()
    assert {line["argv"][0] for line in lines if line["exit"] == 0} == {
        "area", "bounds", "sample", "approx-table", "pi-series", "verify"
    }
    assert {line["exit"] for line in lines} == {0, 1, 2}
    changed = [" ".join(line["argv"]) for line in lines if run_line(line["argv"]) != line]
    assert not changed, f"{len(changed)} of {len(lines)} commands changed:\n" + "\n".join(changed)


if __name__ == "__main__":
    # rewrite every line's hashes from the present code, keeping the argv list,
    # first naming each command whose line moves
    old = _read()
    rows = [run_line(line["argv"]) for line in old]
    moved = [" ".join(row["argv"]) for row, line in zip(rows, old) if row != line]
    sys.stdout.write(f"{len(moved)} of {len(rows)} lines changed\n")
    for argv in moved[:20]:
        sys.stdout.write(f"  {argv}\n")
    if len(moved) > 20:
        sys.stdout.write(f"  ... and {len(moved) - 20} more\n")
    MANIFEST.write_text("".join(json.dumps(row) + "\n" for row in rows))
    sys.stdout.write(f"wrote {len(rows)} lines to {MANIFEST}\n")
