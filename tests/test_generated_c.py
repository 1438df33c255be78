"""The tracked generated C must match its .pyx source.

Cython quotes the source around each piece of code it generates, in a
comment that opens with ``/* "forcing_lab/_ckernels.pyx":N`` and marks
line N with ``# <<<<<<<<<<<<<<``.  Every marked line must equal line N of
the .pyx, so an edit to the .pyx without regenerating the C shows here.
"""

import re
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "forcing_lab"
HEADER = re.compile(r'^\s*/\* "forcing_lab/_ckernels\.pyx":(\d+)$')
MARK = "# <<<<<<<<<<<<<<"


def quoted_lines(c_lines):
    """(N, marked text) for each quote block of the generated C."""
    out = []
    for i, line in enumerate(c_lines):
        header = HEADER.match(line)
        if not header:
            continue
        j = i + 1
        while not c_lines[j].strip().startswith("*/"):
            if c_lines[j].endswith(MARK):
                text = re.sub(r"^\s*\* ?", "", c_lines[j], count=1)
                out.append((int(header.group(1)), text[: -len(MARK)].rstrip()))
                break
            j += 1
        else:
            raise AssertionError(f"quote block at C line {i + 1} marks no line")
    return out


def test_quoted_pyx_lines_match_the_source():
    c_lines = (PACKAGE / "_ckernels.c").read_text().splitlines()
    pyx_lines = (PACKAGE / "_ckernels.pyx").read_text().splitlines()
    quotes = quoted_lines(c_lines)
    assert len(quotes) > 400 and len({n for n, _ in quotes}) > 300
    mismatched = [
        (n, text)
        for n, text in quotes
        if n > len(pyx_lines) or text != pyx_lines[n - 1].rstrip()
    ]
    assert mismatched == []
