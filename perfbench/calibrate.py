"""Fixed pure-Python work whose wall time tells how fast this machine runs
Python right now. It imports nothing from tecsrust, so no change to the
program moves it. run.py starts it between builds, the way it starts a
build, and scales timings by how long it takes (see run.py)."""


class Token:
    __slots__ = ("kind", "text", "line")

    def __init__(self, kind, text, line):
        self.kind, self.text, self.line = kind, text, line


def main() -> None:
    text = ('celltype tC { call sP cP; entry sP eC; attr { int32_t tag = '
            'C_EXP("K_$cell$"); }; };\n') * 6000
    tokens, buf, line = [], [], 1
    for ch in text:  # character scanning and one object per word, as a tokenizer does
        if ch.isalnum() or ch == "_":
            buf.append(ch)
            continue
        if buf:
            tokens.append(Token("word", "".join(buf), line))
            buf = []
        if ch == "\n":
            line += 1
    counts = {}
    for tok in tokens:
        counts[tok.text] = counts.get(tok.text, 0) + 1
    # string formatting and joining, as the emitters do
    out = "\n".join(f"pub static {t.text.upper()}: X = X {{ line: {t.line} }};"
                    for t in tokens[:50000])
    if len(counts) != 13 or not out:
        raise SystemExit("calibration work produced an unexpected result")


if __name__ == "__main__":
    main()
