"""Count the lines of each module of the svp package by kind: code,
docstring, comment and blank, with totals.

Each physical line gets one kind, taken from Python's own tokenizer:

- code: the line holds part of any token other than a comment or a
  docstring, so a statement with a trailing comment is code, and so is
  every line of a multi-line string that is not a docstring;
- docstring: the line lies within a string that stands alone as a
  statement (a module, class or function docstring, or any other bare
  string), blank lines inside it included;
- comment: the line holds only a comment;
- blank: the line holds only whitespace.

Usage, from the repository root (or give another package directory):

    python3 tools/src_lines.py [src/svp]
"""

import os
import sys
import tokenize

KINDS = ("code", "docstring", "comment", "blank")
# Tokens that carry no code of their own: layout, comments and the stream's ends.
_LAYOUT = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.COMMENT, tokenize.ENCODING, tokenize.ENDMARKER}


def line_kinds(path: str) -> list:
    """The kind of each physical line of the Python file at ``path``."""
    with open(path, "rb") as fh:
        tokens = list(tokenize.tokenize(fh.readline))
    with open(path, encoding="utf-8") as fh:
        kinds = ["blank"] * len(fh.read().splitlines())
    rank = {kind: i for i, kind in enumerate(reversed(KINDS))}  # code outranks all

    def mark(first: int, last: int, kind: str) -> None:
        for line in range(first - 1, last):
            if rank[kind] > rank[kinds[line]]:
                kinds[line] = kind

    significant = [t for t in tokens if t.type not in (tokenize.NL, tokenize.COMMENT)]
    for i, tok in enumerate(significant):
        if tok.type in _LAYOUT:
            continue
        before = significant[i - 1].type if i else tokenize.NEWLINE
        after = significant[i + 1].type if i + 1 < len(significant) else tokenize.NEWLINE
        bare = (tok.type == tokenize.STRING and after == tokenize.NEWLINE
                and before in (tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
                               tokenize.ENCODING))
        mark(tok.start[0], tok.end[0], "docstring" if bare else "code")
    for tok in tokens:
        if tok.type == tokenize.COMMENT:
            mark(tok.start[0], tok.start[0], "comment")
    return kinds


def main(argv: list) -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    package = argv[1] if len(argv) > 1 else os.path.join(root, "src", "svp")
    modules = sorted(name for name in os.listdir(package) if name.endswith(".py"))
    totals = dict.fromkeys(KINDS, 0)
    width = max(len(name) for name in modules + ["total"])
    print(f"{'module':<{width}} " + " ".join(f"{k:>9}" for k in KINDS + ("lines",)))
    for name in modules:
        kinds = line_kinds(os.path.join(package, name))
        counts = {kind: kinds.count(kind) for kind in KINDS}
        for kind in KINDS:
            totals[kind] += counts[kind]
        print(f"{name:<{width}} " + " ".join(f"{counts[k]:>9}" for k in KINDS)
              + f" {len(kinds):>9}")
    print(f"{'total':<{width}} " + " ".join(f"{totals[k]:>9}" for k in KINDS)
          + f" {sum(totals.values()):>9}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
