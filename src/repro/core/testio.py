"""Text serialization of tester programs.

A minimal, diff-friendly exchange format in the spirit of STIL/WGL:
one line per tester cycle, fully capturing scan-in stimulus, expected
scan-out values and functional vectors with expected responses::

    # repro tester program v1
    PROGRAM state_vars=3 cycles=27
    SHIFT in=1 out=x
    SHIFT in=0 out=1
    FUNC pi=0110 po=1x0
    ...

``x`` marks masked/don't-care positions.  :func:`dumps`/:func:`loads`
round-trip exactly; :func:`load`/:func:`dump` work on files.  The
parser validates structure (counts, widths, cycle kinds) and raises
:class:`TestProgramFormatError` with line numbers on any damage --
a corrupted test program must never be applied silently.
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

from ..sim import values as V
from .tester import FUNCTIONAL, SHIFT, TesterCycle, TesterProgram

_HEADER = "# repro tester program v1"


class TestProgramFormatError(ValueError):
    """Raised when a serialized tester program cannot be parsed."""


def _bit(value: int) -> str:
    return V.vec_str((value,))


def dumps(program: TesterProgram) -> str:
    """Serialize a tester program to text."""
    lines = [_HEADER,
             f"PROGRAM state_vars={program.n_state_vars} "
             f"cycles={len(program)}"]
    for cycle in program.cycles:
        if cycle.kind == SHIFT:
            lines.append(f"SHIFT in={_bit(cycle.scan_in_bit)} "
                         f"out={_bit(cycle.expected_scan_out_bit)}")
        else:
            po = (V.vec_str(cycle.expected_po)
                  if cycle.expected_po is not None else "")
            lines.append(f"FUNC pi={V.vec_str(cycle.pi_vector)}"
                         + (f" po={po}" if po else ""))
    return "\n".join(lines) + "\n"


def loads(text: str) -> TesterProgram:
    """Parse a serialized tester program.

    Raises
    ------
    TestProgramFormatError
        On any structural damage (bad header, wrong counts, malformed
        lines, invalid logic characters).
    """
    lines = text.splitlines()
    body = [(no, line.strip()) for no, line in enumerate(lines, 1)
            if line.strip() and not line.strip().startswith("#")]
    if not body:
        raise TestProgramFormatError("empty program")
    no, header = body[0]
    if not header.startswith("PROGRAM "):
        raise TestProgramFormatError(f"line {no}: missing PROGRAM header")
    fields = dict(part.split("=", 1) for part in header.split()[1:])
    try:
        n_state_vars = int(fields["state_vars"])
        n_cycles = int(fields["cycles"])
    except (KeyError, ValueError) as exc:
        raise TestProgramFormatError(
            f"line {no}: bad PROGRAM header ({exc})") from None

    program = TesterProgram(n_state_vars=n_state_vars)
    for no, line in body[1:]:
        parts = line.split()
        kind = parts[0]
        fields = dict(part.split("=", 1) for part in parts[1:]
                      if "=" in part)
        try:
            if kind == "SHIFT":
                program.cycles.append(TesterCycle(
                    SHIFT,
                    scan_in_bit=V.lit(fields["in"]),
                    expected_scan_out_bit=V.lit(fields["out"])))
            elif kind == "FUNC":
                po = (V.vec(fields["po"]) if "po" in fields else None)
                program.cycles.append(TesterCycle(
                    FUNCTIONAL,
                    pi_vector=V.vec(fields["pi"]),
                    expected_po=po))
            else:
                raise TestProgramFormatError(
                    f"line {no}: unknown cycle kind {kind!r}")
        except TestProgramFormatError:
            raise
        except (KeyError, ValueError) as exc:
            raise TestProgramFormatError(
                f"line {no}: malformed cycle ({exc})") from None
    if len(program) != n_cycles:
        raise TestProgramFormatError(
            f"header claims {n_cycles} cycles, found {len(program)}")
    return program


def dump(program: TesterProgram, path: Union[str, Path]) -> None:
    """Write a tester program to a file."""
    Path(path).write_text(dumps(program))


def load(path: Union[str, Path]) -> TesterProgram:
    """Read a tester program from a file."""
    return loads(Path(path).read_text())
