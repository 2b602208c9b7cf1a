"""Source line counts of the finehull package, split by kind.

Every physical line of each module under src/finehull counts once, as
one of:

- docstring: a line of a string that stands alone as a statement (a
  module, class or function docstring), blank lines inside it included;
- comment: a line that holds a comment and nothing else;
- blank: an empty or whitespace-only line outside a docstring;
- code: every other line.

The four kinds add up to `wc -l`.  Run from the repository root:

    python tools/line_counts.py [src/finehull]
"""

import io
import os
import sys
import tokenize

SKIP = {tokenize.ENCODING, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENDMARKER, tokenize.COMMENT}
KINDS = ("code", "docstring", "comment", "blank")


def count(path: str) -> dict:
    """Line counts of one module by kind, plus "total"."""
    with open(path, "rb") as fh:
        data = fh.read()
    lines = data.decode("utf-8").splitlines()
    code, doc, comment = set(), set(), set()
    # a docstring is a STRING token that alone makes up a logical line
    logical = []
    for tok in tokenize.tokenize(io.BytesIO(data).readline):
        if tok.type == tokenize.COMMENT:
            comment.add(tok.start[0])
        elif tok.type not in SKIP:
            logical.append(tok)
        elif tok.type == tokenize.NEWLINE:
            rows = doc if len(logical) == 1 and \
                logical[0].type == tokenize.STRING else code
            for t in logical:
                rows.update(range(t.start[0], t.end[0] + 1))
            logical = []
    out = dict.fromkeys(KINDS, 0)
    for row, text in enumerate(lines, 1):
        if row in doc:
            out["docstring"] += 1
        elif row in code:
            out["code"] += 1
        elif row in comment:
            out["comment"] += 1
        elif not text.strip():
            out["blank"] += 1
        else:
            out["code"] += 1
    out["total"] = len(lines)
    return out


def main(argv) -> int:
    root = argv[1] if len(argv) > 1 else os.path.join("src", "finehull")
    names = sorted(n for n in os.listdir(root) if n.endswith(".py"))
    total = dict.fromkeys(KINDS + ("total",), 0)
    print(f"{'module':<16}{'total':>7}" + "".join(f"{k:>11}" for k in KINDS))
    for name in names:
        c = count(os.path.join(root, name))
        for k in total:
            total[k] += c[k]
        print(f"{name:<16}{c['total']:>7}" +
              "".join(f"{c[k]:>11}" for k in KINDS))
    print(f"{'total':<16}{total['total']:>7}" +
          "".join(f"{total[k]:>11}" for k in KINDS))
    print(f"{total['total']} = " + "/".join(str(total[k]) for k in KINDS) +
          " (" + "/".join(KINDS) + ")")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
