"""Hand-written lexer for UC source text.

Accepts the paper's spelling ``index-set`` as well as ``index_set`` (the
hyphenated form is folded during scanning), C and C++ comments, decimal /
hex / octal integer literals, float literals, character and string
literals, the ``..`` range punctuation used in index-set definitions, and
the reduction introducers ``$+ $* $&& $|| $^ $> $< $,``.
"""

from __future__ import annotations

from typing import List

from .errors import UCSyntaxError
from .tokens import KEYWORDS, MULTI_PUNCT, REDUCTION_OPS, SINGLE_PUNCT, Token


class Lexer:
    """Scans UC source into a token list (ending with an EOF token)."""

    def __init__(self, source: str, filename: str = "<uc>") -> None:
        self.src = source
        self.filename = filename
        self.pos = 0
        self.line = 1
        self.col = 1

    # -- character helpers ---------------------------------------------------

    def _peek(self, ahead: int = 0) -> str:
        i = self.pos + ahead
        return self.src[i] if i < len(self.src) else ""

    def _advance(self, n: int = 1) -> str:
        text = self.src[self.pos : self.pos + n]
        for ch in text:
            if ch == "\n":
                self.line += 1
                self.col = 1
            else:
                self.col += 1
        self.pos += n
        return text

    def _error(self, msg: str) -> UCSyntaxError:
        return UCSyntaxError(msg, self.line, self.col)

    # -- scanning ------------------------------------------------------------

    def tokens(self) -> List[Token]:
        out: List[Token] = []
        while True:
            tok = self.next_token()
            out.append(tok)
            if tok.kind == "eof":
                return out

    def _skip_trivia(self) -> None:
        while self.pos < len(self.src):
            ch = self._peek()
            if ch in " \t\r\n\f\v":
                self._advance()
            elif ch == "/" and self._peek(1) == "/":
                while self.pos < len(self.src) and self._peek() != "\n":
                    self._advance()
            elif ch == "/" and self._peek(1) == "*":
                self._advance(2)
                while self.pos < len(self.src) and not (
                    self._peek() == "*" and self._peek(1) == "/"
                ):
                    self._advance()
                if self.pos >= len(self.src):
                    raise self._error("unterminated comment")
                self._advance(2)
            elif ch == "#":
                # tolerate preprocessor-style lines (#define N 32 handled
                # by the program front end; here we just skip the line)
                while self.pos < len(self.src) and self._peek() != "\n":
                    self._advance()
            else:
                return

    def next_token(self) -> Token:
        self._skip_trivia()
        line, col = self.line, self.col
        if self.pos >= len(self.src):
            return Token("eof", "", line, col)

        ch = self._peek()

        if ch.isalpha() or ch == "_":
            return self._identifier(line, col)
        if ch.isdigit() or (ch == "." and self._peek(1).isdigit()):
            return self._number(line, col)
        if ch == '"':
            return self._string(line, col)
        if ch == "'":
            return self._char(line, col)
        if ch == "$":
            return self._reduction_op(line, col)

        for p in MULTI_PUNCT:
            if self.src.startswith(p, self.pos):
                self._advance(len(p))
                return Token("punct", p, line, col)
        if ch in SINGLE_PUNCT:
            self._advance()
            return Token("punct", ch, line, col)
        raise self._error(f"unexpected character {ch!r}")

    def _identifier(self, line: int, col: int) -> Token:
        start = self.pos
        while self.pos < len(self.src) and (self._peek().isalnum() or self._peek() == "_"):
            self._advance()
        text = self.src[start : self.pos]
        # fold the paper's hyphenated 'index-set' spelling
        if text == "index" and self._peek() == "-" and self.src.startswith("-set", self.pos):
            self._advance(4)
            text = "index_set"
        if text in KEYWORDS:
            return Token("keyword", text, line, col)
        return Token("id", text, line, col)

    def _number(self, line: int, col: int) -> Token:
        start = self.pos
        if self._peek() == "0" and self._peek(1) in "xX":
            self._advance(2)
            while self._peek() and self._peek() in "0123456789abcdefABCDEF":
                self._advance()
            return Token("int", self._int(self.src[start : self.pos], 16, "hexadecimal", line, col), line, col)

        saw_dot = False
        saw_exp = False
        while self.pos < len(self.src):
            c = self._peek()
            if c.isdigit():
                self._advance()
            elif c == "." and not saw_dot and not saw_exp:
                # '..' belongs to a range, not to this number
                if self._peek(1) == ".":
                    break
                saw_dot = True
                self._advance()
            elif c in "eE" and (self._peek(1).isdigit() or (self._peek(1) in "+-" and self._peek(2).isdigit())):
                saw_exp = True
                self._advance()
                if self._peek() in "+-":
                    self._advance()
            else:
                break
        text = self.src[start : self.pos]
        if saw_dot or saw_exp:
            return Token("float", float(text), line, col)
        if text.startswith("0") and len(text) > 1:
            return Token("int", self._int(text, 8, "octal", line, col), line, col)
        return Token("int", self._int(text, 10, "decimal", line, col), line, col)

    @staticmethod
    def _int(text: str, base: int, what: str, line: int, col: int) -> int:
        try:
            value = int(text, base)
        except ValueError:  # '09', '0x': a diagnostic at the literal, not a traceback
            raise UCSyntaxError(f"invalid {what} literal {text!r}", line, col) from None
        if value >= 2**63:  # an int is 64 bits; numpy would raise OverflowError
            raise UCSyntaxError(f"{what} literal {text!r} does not fit in 64 bits", line, col)
        return value

    def _string(self, line: int, col: int) -> Token:
        self._advance()  # opening quote
        chars: List[str] = []
        while True:
            if self.pos >= len(self.src):
                raise self._error("unterminated string literal")
            c = self._advance()
            if c == '"':
                break
            if c == "\\":
                chars.append(self._escape())
            else:
                chars.append(c)
        return Token("string", "".join(chars), line, col)

    def _char(self, line: int, col: int) -> Token:
        self._advance()  # opening quote
        if self.pos >= len(self.src):
            raise self._error("unterminated character literal")
        c = self._advance()
        if c == "\\":
            c = self._escape()
        if self._peek() != "'":
            raise self._error("unterminated character literal")
        self._advance()
        return Token("char", ord(c), line, col)

    def _escape(self) -> str:
        c = self._advance()
        table = {"n": "\n", "t": "\t", "r": "\r", "0": "\0", "\\": "\\", "'": "'", '"': '"'}
        if c in table:
            return table[c]
        raise self._error(f"unknown escape sequence \\{c}")

    def _reduction_op(self, line: int, col: int) -> Token:
        self._advance()  # the '$'
        for spelling in ("&&", "||"):
            if self.src.startswith(spelling, self.pos):
                self._advance(2)
                return Token("redop", REDUCTION_OPS[spelling], line, col)
        c = self._peek()
        if c in REDUCTION_OPS:
            self._advance()
            return Token("redop", REDUCTION_OPS[c], line, col)
        raise self._error(f"unknown reduction operator $${c!r}")


def tokenize(source: str, filename: str = "<uc>") -> List[Token]:
    """Scan ``source`` into a token list ending with EOF."""
    return Lexer(source, filename).tokens()
