"""Print how many lines of ``src/effectsym/*.py`` hold code.

A line holds code when a token other than a comment sits on it.  Blank
lines, comments and docstrings (a statement that is only a string) do not
count, so deleting them does not shrink the number.

    python .github/count_code_lines.py [FILE ...]
"""

import glob
import sys
import tokenize

LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING,
          tokenize.ENDMARKER}


def code_lines(path: str) -> set[int]:
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []
    with open(path, "rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type in LAYOUT:
                continue
            if tok.type != tokenize.NEWLINE:
                statement.append(tok)
                continue
            if any(t.type != tokenize.STRING for t in statement):
                lines.update(n for t in statement for n in range(t.start[0], t.end[0] + 1))
            statement = []
    return lines


if __name__ == "__main__":
    paths = sys.argv[1:] or sorted(glob.glob("src/effectsym/*.py"))
    print(sum(len(code_lines(p)) for p in paths))
