"""Count the lines and AST nodes of the sullivan package.

    python3 tools/source_size.py ROOT [ROOT2]

ROOT and ROOT2 are repository roots.  For each `src/sullivan/*.py` the
tool prints its line count and the number of nodes `ast.walk` visits in
its parse tree, then the totals.  Given two roots it prints both side by
side and the change from ROOT to ROOT2; a module present in one root
only counts as 0 in the other.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def sizes(root: str) -> dict[str, tuple[int, int]]:
    """Module file name -> (lines, AST nodes)."""
    out = {}
    for path in sorted(Path(root, "src", "sullivan").glob("*.py")):
        text = path.read_text()
        out[path.name] = (len(text.splitlines()), sum(1 for _ in ast.walk(ast.parse(text))))
    return out


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print("usage: python3 tools/source_size.py ROOT [ROOT2]", file=sys.stderr)
        return 2
    tables = [sizes(root) for root in argv]
    if not all(tables):
        print("no src/sullivan/*.py under " + " or ".join(argv), file=sys.stderr)
        return 2
    names = sorted(set().union(*tables))
    rows = [(name, [t.get(name, (0, 0)) for t in tables]) for name in names]
    rows.append(("total", [tuple(map(sum, zip(*t.values()))) for t in tables]))
    for i, root in enumerate(argv, 1):
        print(f"[{i}] {root}")
    table = [["module"] + [f"{what} [{i}]" for i in range(1, len(argv) + 1)
                           for what in ("lines", "nodes")]]
    if len(tables) == 2:
        table[0] += ["lines +/-", "nodes +/-"]
    for name, counts in rows:
        cells = [name] + [str(n) for pair in counts for n in pair]
        if len(counts) == 2:
            (old_lines, old_nodes), (new_lines, new_nodes) = counts
            cells += [f"{new_lines - old_lines:+d}", f"{new_nodes - old_nodes:+d}"]
        table.append(cells)
    widths = [max(len(row[c]) for row in table) for c in range(len(table[0]))]
    for row in table:
        print("  ".join([row[0].ljust(widths[0])]
                        + [cell.rjust(w) for cell, w in zip(row[1:], widths[1:])]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
