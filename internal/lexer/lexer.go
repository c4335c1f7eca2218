package lexer

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/source"
)

// Lexer scans a Delirium source text into tokens. Create one with New and
// call Next until it returns an EOF token. The lexer never fails hard:
// unscannable input yields ILLEGAL tokens and a diagnostic, letting the
// parser recover and report further errors.
type Lexer struct {
	file  string
	src   string
	off   int // byte offset of the next rune
	line  int
	col   int
	diags *source.DiagList
}

// New returns a lexer over src. Diagnostics are appended to diags, which
// must be non-nil.
func New(file, src string, diags *source.DiagList) *Lexer {
	return &Lexer{file: file, src: src, off: 0, line: 1, col: 1, diags: diags}
}

// pos captures the current source position.
func (l *Lexer) pos() source.Pos {
	return source.Pos{File: l.file, Offset: l.off, Line: l.line, Col: l.col}
}

// peek returns the next rune without consuming it, or -1 at EOF.
func (l *Lexer) peek() rune {
	if l.off >= len(l.src) {
		return -1
	}
	r, _ := utf8.DecodeRuneInString(l.src[l.off:])
	return r
}

// peekAt returns the rune at byte offset l.off+n, or -1 past EOF. Only used
// with small n over ASCII lookahead (comment detection).
func (l *Lexer) peekAt(n int) rune {
	if l.off+n >= len(l.src) {
		return -1
	}
	r, _ := utf8.DecodeRuneInString(l.src[l.off+n:])
	return r
}

// advance consumes one rune, tracking line/column.
func (l *Lexer) advance() rune {
	if l.off >= len(l.src) {
		return -1
	}
	r, w := utf8.DecodeRuneInString(l.src[l.off:])
	l.off += w
	if r == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return r
}

// skipSpaceAndComments consumes whitespace and "--" line comments.
func (l *Lexer) skipSpaceAndComments() {
	for {
		r := l.peek()
		switch {
		case r == ' ' || r == '\t' || r == '\r' || r == '\n':
			l.advance()
		case r == '-' && l.peekAt(1) == '-':
			for l.peek() != '\n' && l.peek() != -1 {
				l.advance()
			}
		default:
			return
		}
	}
}

// Next scans and returns the next token.
func (l *Lexer) Next() Token {
	l.skipSpaceAndComments()
	start := l.pos()
	r := l.peek()
	switch {
	case r == -1:
		return Token{Type: EOF, Pos: start}
	case isIdentStart(r):
		return l.scanIdent(start)
	case unicode.IsDigit(r):
		return l.scanNumber(start)
	case r == '"':
		return l.scanString(start)
	}
	l.advance()
	switch r {
	case '(':
		return Token{Type: LPAREN, Lit: "(", Pos: start}
	case ')':
		return Token{Type: RPAREN, Lit: ")", Pos: start}
	case '{':
		return Token{Type: LBRACE, Lit: "{", Pos: start}
	case '}':
		return Token{Type: RBRACE, Lit: "}", Pos: start}
	case '<':
		return Token{Type: LANGLE, Lit: "<", Pos: start}
	case '>':
		return Token{Type: RANGLE, Lit: ">", Pos: start}
	case ',':
		return Token{Type: COMMA, Lit: ",", Pos: start}
	case '=':
		return Token{Type: ASSIGN, Lit: "=", Pos: start}
	case '-':
		// A lone '-' (not a comment) may begin a negative numeric literal.
		if unicode.IsDigit(l.peek()) {
			tok := l.scanNumber(start)
			tok.Lit = "-" + tok.Lit
			tok.IntVal = -tok.IntVal
			tok.FltVal = -tok.FltVal
			return tok
		}
		l.diags.Errorf(start, "unexpected character '-' (did you mean a \"--\" comment or a negative literal?)")
		return Token{Type: ILLEGAL, Lit: "-", Pos: start}
	default:
		l.diags.Errorf(start, "unexpected character %q", r)
		return Token{Type: ILLEGAL, Lit: string(r), Pos: start}
	}
}

// scanIdent scans an identifier or keyword.
func (l *Lexer) scanIdent(start source.Pos) Token {
	begin := l.off
	for isIdentPart(l.peek()) {
		l.advance()
	}
	lit := l.src[begin:l.off]
	if kw, ok := Keywords[lit]; ok {
		return Token{Type: kw, Lit: lit, Pos: start}
	}
	return Token{Type: IDENT, Lit: lit, Pos: start}
}

// scanNumber scans an integer or float literal (digits, optional fraction,
// optional exponent).
func (l *Lexer) scanNumber(start source.Pos) Token {
	begin := l.off
	for unicode.IsDigit(l.peek()) {
		l.advance()
	}
	isFloat := false
	if l.peek() == '.' && unicode.IsDigit(l.peekAt(1)) {
		isFloat = true
		l.advance()
		for unicode.IsDigit(l.peek()) {
			l.advance()
		}
	}
	if r := l.peek(); r == 'e' || r == 'E' {
		save := l.off
		saveLine, saveCol := l.line, l.col
		l.advance()
		if r := l.peek(); r == '+' || r == '-' {
			l.advance()
		}
		if unicode.IsDigit(l.peek()) {
			isFloat = true
			for unicode.IsDigit(l.peek()) {
				l.advance()
			}
		} else {
			// Not an exponent after all; restore (e.g. "3elements" is an
			// error caught by identifier rules later).
			l.off, l.line, l.col = save, saveLine, saveCol
		}
	}
	lit := l.src[begin:l.off]
	if isIdentStart(l.peek()) {
		bad := l.pos()
		for isIdentPart(l.peek()) {
			l.advance()
		}
		l.diags.Errorf(bad, "identifier may not begin with a digit: %q", l.src[begin:l.off])
		return Token{Type: ILLEGAL, Lit: l.src[begin:l.off], Pos: start}
	}
	if isFloat {
		f, err := strconv.ParseFloat(lit, 64)
		if err != nil {
			l.diags.Errorf(start, "invalid float literal %q: %v", lit, err)
			return Token{Type: ILLEGAL, Lit: lit, Pos: start}
		}
		return Token{Type: FLOAT, Lit: lit, Pos: start, FltVal: f}
	}
	n, err := strconv.ParseInt(lit, 10, 64)
	if err != nil {
		l.diags.Errorf(start, "invalid integer literal %q: %v", lit, err)
		return Token{Type: ILLEGAL, Lit: lit, Pos: start}
	}
	return Token{Type: INT, Lit: lit, Pos: start, IntVal: n}
}

// scanString scans a double-quoted string with \n \t \\ \" escapes.
func (l *Lexer) scanString(start source.Pos) Token {
	l.advance() // opening quote
	var buf []rune
	for {
		r := l.peek()
		switch r {
		case -1, '\n':
			l.diags.Errorf(start, "unterminated string literal")
			return Token{Type: ILLEGAL, Lit: string(buf), Pos: start}
		case '"':
			l.advance()
			return Token{Type: STRING, Lit: string(buf), Pos: start}
		case '\\':
			l.advance()
			esc := l.advance()
			switch esc {
			case 'n':
				buf = append(buf, '\n')
			case 't':
				buf = append(buf, '\t')
			case '\\':
				buf = append(buf, '\\')
			case '"':
				buf = append(buf, '"')
			default:
				l.diags.Errorf(start, "unknown escape sequence \\%c in string", esc)
				buf = append(buf, esc)
			}
		default:
			buf = append(buf, l.advance())
		}
	}
}

// ScanAll tokenizes the entire input, always ending with an EOF token. It is
// the unit the parallel compiler hands to the parsing stage.
func (l *Lexer) ScanAll() []Token {
	// Generated programs run about 2.7 bytes to a token and hand-written
	// ones 4 to 7, so len/2 holds every token of either without regrowing
	// the slice.
	toks := make([]Token, 0, (len(l.src)-l.off)/2+1)
	for {
		t := l.Next()
		toks = append(toks, t)
		if t.Type == EOF {
			return toks
		}
	}
}

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r)
}

// Describe formats a token list compactly, one token per line, for the
// delc -tokens debugging mode.
func Describe(toks []Token) string {
	var b strings.Builder
	for _, t := range toks {
		fmt.Fprintf(&b, "%-12s %s\n", t.Pos, t)
	}
	return b.String()
}
