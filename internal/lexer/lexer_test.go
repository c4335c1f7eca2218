package lexer

import (
	"strings"
	"testing"

	"repro/internal/source"
)

func scan(t *testing.T, src string) ([]Token, *source.DiagList) {
	t.Helper()
	var diags source.DiagList
	l := New("test.dlr", src, &diags)
	return l.ScanAll(), &diags
}

func types(toks []Token) []Type {
	out := make([]Type, len(toks))
	for i, t := range toks {
		out[i] = t.Type
	}
	return out
}

func TestScanPunctuation(t *testing.T) {
	toks, diags := scan(t, "(){}<>,=")
	want := []Type{LPAREN, RPAREN, LBRACE, RBRACE, LANGLE, RANGLE, COMMA, ASSIGN, EOF}
	if diags.HasErrors() {
		t.Fatalf("unexpected errors: %v", diags.Err())
	}
	got := types(toks)
	if len(got) != len(want) {
		t.Fatalf("token count = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("tok[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestScanKeywordsAndIdents(t *testing.T) {
	toks, diags := scan(t, "let in if then else iterate while result define NULL foo _bar x1")
	if diags.HasErrors() {
		t.Fatalf("unexpected errors: %v", diags.Err())
	}
	want := []Type{KwLet, KwIn, KwIf, KwThen, KwElse, KwIterate, KwWhile,
		KwResult, KwDefine, KwNull, IDENT, IDENT, IDENT, EOF}
	got := types(toks)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("tok[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if toks[10].Lit != "foo" || toks[11].Lit != "_bar" || toks[12].Lit != "x1" {
		t.Errorf("identifier literals wrong: %v %v %v", toks[10], toks[11], toks[12])
	}
}

func TestScanNumbers(t *testing.T) {
	toks, diags := scan(t, "0 42 3.5 2e3 1.5e-2 7E+2")
	if diags.HasErrors() {
		t.Fatalf("unexpected errors: %v", diags.Err())
	}
	if toks[0].Type != INT || toks[0].IntVal != 0 {
		t.Errorf("tok0 = %+v", toks[0])
	}
	if toks[1].Type != INT || toks[1].IntVal != 42 {
		t.Errorf("tok1 = %+v", toks[1])
	}
	if toks[2].Type != FLOAT || toks[2].FltVal != 3.5 {
		t.Errorf("tok2 = %+v", toks[2])
	}
	if toks[3].Type != FLOAT || toks[3].FltVal != 2000 {
		t.Errorf("tok3 = %+v", toks[3])
	}
	if toks[4].Type != FLOAT || toks[4].FltVal != 0.015 {
		t.Errorf("tok4 = %+v", toks[4])
	}
	if toks[5].Type != FLOAT || toks[5].FltVal != 700 {
		t.Errorf("tok5 = %+v", toks[5])
	}
}

func TestScanNegativeLiterals(t *testing.T) {
	toks, diags := scan(t, "-5 -2.5")
	if diags.HasErrors() {
		t.Fatalf("unexpected errors: %v", diags.Err())
	}
	if toks[0].Type != INT || toks[0].IntVal != -5 {
		t.Errorf("tok0 = %+v, want INT -5", toks[0])
	}
	if toks[1].Type != FLOAT || toks[1].FltVal != -2.5 {
		t.Errorf("tok1 = %+v, want FLOAT -2.5", toks[1])
	}
}

func TestScanStrings(t *testing.T) {
	toks, diags := scan(t, `"hello" "a\nb" "q\"q" "t\tt" "s\\s"`)
	if diags.HasErrors() {
		t.Fatalf("unexpected errors: %v", diags.Err())
	}
	want := []string{"hello", "a\nb", `q"q`, "t\tt", `s\s`}
	for i, w := range want {
		if toks[i].Type != STRING || toks[i].Lit != w {
			t.Errorf("tok[%d] = %+v, want STRING %q", i, toks[i], w)
		}
	}
}

func TestScanComments(t *testing.T) {
	toks, diags := scan(t, "a -- this is a comment < > = \nb -- trailing")
	if diags.HasErrors() {
		t.Fatalf("unexpected errors: %v", diags.Err())
	}
	got := types(toks)
	want := []Type{IDENT, IDENT, EOF}
	if len(got) != len(want) {
		t.Fatalf("tokens = %v", toks)
	}
	if toks[1].Pos.Line != 2 {
		t.Errorf("b at line %d, want 2", toks[1].Pos.Line)
	}
}

func TestScanPositions(t *testing.T) {
	toks, _ := scan(t, "ab cd\n  ef")
	if toks[0].Pos.Line != 1 || toks[0].Pos.Col != 1 {
		t.Errorf("ab at %v", toks[0].Pos)
	}
	if toks[1].Pos.Line != 1 || toks[1].Pos.Col != 4 {
		t.Errorf("cd at %v", toks[1].Pos)
	}
	if toks[2].Pos.Line != 2 || toks[2].Pos.Col != 3 {
		t.Errorf("ef at %v", toks[2].Pos)
	}
}

func TestScanErrors(t *testing.T) {
	cases := []struct {
		src     string
		errPart string
	}{
		{`"unterminated`, "unterminated string"},
		{"\"bad\nline\"", "unterminated string"},
		{"3abc", "may not begin with a digit"},
		{"@", "unexpected character"},
		{`"\q"`, "unknown escape"},
		{"- x", "unexpected character '-'"},
	}
	for _, c := range cases {
		_, diags := scan(t, c.src)
		if !diags.HasErrors() {
			t.Errorf("src %q: expected error", c.src)
			continue
		}
		if !strings.Contains(diags.Err().Error(), c.errPart) {
			t.Errorf("src %q: error %q does not mention %q", c.src, diags.Err(), c.errPart)
		}
	}
}

func TestScanEOFIsSticky(t *testing.T) {
	var diags source.DiagList
	l := New("t", "x", &diags)
	l.Next()
	for i := 0; i < 3; i++ {
		if tok := l.Next(); tok.Type != EOF {
			t.Fatalf("Next after EOF = %v, want EOF", tok)
		}
	}
}

func TestScanPaperFragment(t *testing.T) {
	src := `
main()
  let board = empty_board()
  in show_solutions(do_it(board,1))

do_it(board,queen)
  let h1 = try(board,queen,1)
  in merge(h1)
`
	toks, diags := scan(t, src)
	if diags.HasErrors() {
		t.Fatalf("paper fragment should scan cleanly: %v", diags.Err())
	}
	// Spot-check the shape: main ( ) let board = ...
	want := []Type{IDENT, LPAREN, RPAREN, KwLet, IDENT, ASSIGN, IDENT, LPAREN, RPAREN, KwIn}
	got := types(toks)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("tok[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestScanIterateFragment(t *testing.T) {
	src := `iterate { slab=START_SLAB,incr(slab) } while is_not_equal(slab,FINAL_SLAB), result convolve_data`
	toks, diags := scan(t, src)
	if diags.HasErrors() {
		t.Fatalf("errors: %v", diags.Err())
	}
	if toks[0].Type != KwIterate || toks[1].Type != LBRACE {
		t.Errorf("start = %v %v", toks[0], toks[1])
	}
	found := false
	for _, tok := range toks {
		if tok.Type == KwResult {
			found = true
		}
	}
	if !found {
		t.Error("result keyword not found")
	}
}

func TestTokenString(t *testing.T) {
	if got := (Token{Type: IDENT, Lit: "x"}).String(); got != `identifier "x"` {
		t.Errorf("Token.String() = %q", got)
	}
	if got := (Token{Type: KwLet, Lit: "let"}).String(); got != "'let'" {
		t.Errorf("Token.String() = %q", got)
	}
	if !strings.Contains(Type(77).String(), "77") {
		t.Error("unknown type string should embed value")
	}
}

func TestDescribe(t *testing.T) {
	toks, _ := scan(t, "a = 1")
	out := Describe(toks)
	if !strings.Contains(out, `identifier "a"`) || !strings.Contains(out, "EOF") {
		t.Errorf("Describe output missing tokens:\n%s", out)
	}
}

func TestScanUnicodeIdentifiers(t *testing.T) {
	toks, diags := scan(t, "π = 3")
	if diags.HasErrors() {
		t.Fatalf("unicode identifier should scan: %v", diags.Err())
	}
	if toks[0].Type != IDENT || toks[0].Lit != "π" {
		t.Errorf("tok0 = %+v", toks[0])
	}
}

// TestDescribeExactOutput pins delc -tokens' format: the position padded
// to twelve columns, then the token, one per line.
func TestDescribeExactOutput(t *testing.T) {
	var diags source.DiagList
	toks := New("t.dlr", "main() add(1, 2.5) -- c\n  \"s\"", &diags).ScanAll()
	want := `t.dlr:1:1    identifier "main"
t.dlr:1:5    '('
t.dlr:1:6    ')'
t.dlr:1:8    identifier "add"
t.dlr:1:11   '('
t.dlr:1:12   integer "1"
t.dlr:1:13   ','
t.dlr:1:15   float "2.5"
t.dlr:1:18   ')'
t.dlr:2:3    string "s"
t.dlr:2:6    EOF
`
	if got := Describe(toks); got != want {
		t.Errorf("Describe =\n%s\nwant\n%s", got, want)
	}
}
