"""Count the code lines of Python files, printed as `wc -l` prints lines.

A code line holds a token other than a comment.  Docstrings are left out:
string literals that are a statement by themselves.

    python .github/code_lines.py src/losem/*.py
"""
import sys
import tokenize

# tokens that hold no code; NEWLINE, INDENT and DEDENT only frame a statement
LAYOUT = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(path: str) -> int:
    with open(path, "rb") as fh:
        tokens = [t for t in tokenize.tokenize(fh.readline)
                  if t.type not in (tokenize.COMMENT, tokenize.NL)]
    lines = set()
    for before, tok, after in zip(tokens, tokens[1:], tokens[2:] + tokens[-1:]):
        statement = before.type in LAYOUT | {tokenize.ENCODING} and after.type in LAYOUT
        if tok.type in LAYOUT or (tok.type == tokenize.STRING and statement):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


counts = [code_lines(path) for path in sys.argv[1:]]
for path, count in zip(sys.argv[1:], counts):
    print(f"{count:5d} {path}")
print(f"{sum(counts):5d} total")
