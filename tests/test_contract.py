"""The CLI's exit contract as one table.

Each row gives a command line, a stdin document, an environment fault, and
the exit code and stderr line (or its prefix) that it requires; every run is
also held to `check_contract`. Rows run in-process through `cli.main`. Two
kinds start `python -m posetglue.cli` instead: the hash-seed rows, which
must print the same bytes under PYTHONHASHSEED 0 and 1, and the stream-fault
rows.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import posetglue.cli as cli
from posetglue.errors import InternalInvariantError

from conftest import FIXTURES, check_contract, run_cli

GOLDEN = Path(__file__).resolve().parent / "golden"
VERIFIED = "saturated embedding of the source verified\n"

TWO_CYCLES = json.dumps(
    {
        "version": 1,
        "nodes": list("abcdef"),
        "covers": [["a", "b"], ["b", "c"], ["c", "a"], ["d", "e"], ["e", "f"], ["f", "d"]],
    }
)
# the diamond's script with its five embedding values renamed to ids outside
# the final poset, of which the message names three
STRAY_EMBEDDING = json.loads((GOLDEN / "diamond.script").read_text())
STRAY_EMBEDDING["embedding"] = {
    x: f"zz{i}" for i, x in enumerate(sorted(STRAY_EMBEDDING["embedding"]))
}
STRAY_EMBEDDING = json.dumps(STRAY_EMBEDDING)

# name: (command line, stdin, fault, exit code, stderr line or its prefix).
# A command line may be a pipeline, each command reading the last one's
# stdout; an argument ending in `.poset` or `.script` names a fixture. The
# fault is None; "seeds", under which the row runs with both hash seeds and
# must print the same bytes; an exception, an injected bug that
# `decompose_to_point` raises; or a stream fault, where a broken pipe is a
# pipe whose reader closed before the write.
ROWS = {
    "random-120-with-glue-steps-certifies": (
        "random --seed 1 --nodes 120 --p 0.05 | decompose - | replay -", "", None, 0, None
    ),
    "gext-z-padded-to-dim-6-certifies": (
        "decompose gext-z.poset --wrap min-dim=6 | replay -", "", None, 0, None
    ),
    "injected-invariant-violation": (
        "decompose point.poset", "", InternalInvariantError("synthetic"), 3,
        "internal invariant violated: synthetic\n",
    ),
    "injected-unexpected-exception": (
        "decompose x9.poset", "", RuntimeError("boom\nsecond line"), 3,
        "internal error: RuntimeError('boom\\nsecond line')\n",
    ),
    "unknown-glue-ids-name-the-least": (
        "glue diamond.poset --along zz,yy,xx,ww", "", "seeds", 2, "input error: unknown node 'ww'\n"
    ),
    "unknown-highlight-ids-name-the-least": (
        "render diamond.poset --highlight zz,yy,xx", "", "seeds", 2,
        "input error: unknown node 'xx'\n",
    ),
    "one-of-two-cycles-is-named": (
        "info -", TWO_CYCLES, "seeds", 2, "input error: relation closure has a cycle: "
    ),
    "stray-embedding-names-the-least-three": (
        "replay -", STRAY_EMBEDDING, "seeds", 1,
        "verification failed: embedding lands outside the final poset: ['zz0', 'zz1', 'zz2']\n",
    ),
    "closed-stdin": ("info -", "", "closed stdin", 2, "input error: stdin is closed\n"),
    "closed-stdout": ("info x9.poset", "", "closed stdout", 2, "input error: stdout is closed\n"),
    "closed-stderr": ("info no-such-file.poset", "", "closed stderr", 2, None),
    "closed-stderr-replay": ("replay no-such-file.script", "", "closed stderr", 2, None),
    "broken-pipe": (
        "decompose x9.poset", "", "broken pipe", 2, "input error: [Errno 32] Broken pipe\n"
    ),
    "full-device": (
        "info x9.poset", "", "/dev/full", 2, "input error: [Errno 28] No space left on device\n"
    ),
    "help-to-a-full-device": (
        "--help", "", "/dev/full", 2, "input error: [Errno 28] No space left on device\n"
    ),
}


def commands(line):
    return [
        [str(FIXTURES / a) if a.endswith((".poset", ".script")) else a for a in command.split()]
        for command in line.split(" | ")
    ]


def run_in_process(line, stdin):
    """Each command of the pipeline in turn, until one fails."""
    out = stdin
    for argv in commands(line):
        code, out, err = run_cli(argv, out.encode("utf-8"))
        if code:
            break
        check_contract(code, out, err)
    return code, out, err


def run_process(line, stdin, fault, seed="0"):
    """The one command of the line in a child interpreter, with stdout
    block-buffered (no PYTHONUNBUFFERED), so that a failed write shows only
    when it is flushed: (exit code, stdout, stderr)."""
    [argv] = commands(line)
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    closed = {"closed stdin": 0, "closed stdout": 1, "closed stderr": 2}.get(fault)
    stdout = subprocess.PIPE
    if fault == "broken pipe":
        reader, stdout = os.pipe()
        os.close(reader)
    elif fault == "/dev/full":
        stdout = os.open("/dev/full", os.O_WRONLY)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "posetglue.cli", *argv],
            input=stdin.encode("utf-8"),
            stdout=stdout,
            stderr=subprocess.PIPE,
            env={**env, "PYTHONHASHSEED": seed},
            preexec_fn=None if closed is None else lambda: os.close(closed),
        )
    finally:
        if stdout != subprocess.PIPE:
            os.close(stdout)
    return proc.returncode, (proc.stdout or b"").decode("utf-8"), proc.stderr.decode("utf-8")


@pytest.mark.parametrize("name", ROWS)
def test_row_keeps_the_contract(monkeypatch, name):
    line, stdin, fault, code, message = ROWS[name]
    if isinstance(fault, Exception):
        def bug(*args, **kwargs):
            raise fault

        monkeypatch.setattr(cli, "decompose_to_point", bug)
    if fault is None or isinstance(fault, Exception):
        result = run_in_process(line, stdin)
    elif fault == "seeds":
        result = run_process(line, stdin, fault)
        assert run_process(line, stdin, fault, seed="1") == result
    else:
        result = run_process(line, stdin, fault)
    if fault == "closed stderr":
        assert result[:2] == (code, "")
    else:
        check_contract(*result, code, message, bug=isinstance(fault, Exception))
    if code == 0:
        assert result[1].endswith(VERIFIED)
