// Package source provides source-file positions and structured diagnostics
// for the Delirium front end. Every token and AST node carries a Pos so that
// errors from any compiler pass can point back at the coordination program.
package source

import (
	"fmt"
	"sort"
	"strings"
)

// Pos identifies a location in a Delirium source file. Line and Col are
// 1-based; Offset is the 0-based byte offset. The zero Pos is "no position".
type Pos struct {
	File   string
	Offset int
	Line   int
	Col    int
}

// IsValid reports whether p refers to an actual source location.
func (p Pos) IsValid() bool { return p.Line > 0 }

// String renders the position as file:line:col, omitting missing parts.
func (p Pos) String() string {
	if !p.IsValid() {
		return "<unknown>"
	}
	if p.File == "" {
		return fmt.Sprintf("%d:%d", p.Line, p.Col)
	}
	return fmt.Sprintf("%s:%d:%d", p.File, p.Line, p.Col)
}

// Before reports whether p appears strictly before q in the same file.
func (p Pos) Before(q Pos) bool {
	if p.Line != q.Line {
		return p.Line < q.Line
	}
	return p.Col < q.Col
}

// Severity classifies a diagnostic.
type Severity int

const (
	// Error diagnostics abort compilation.
	Error Severity = iota
	// Warning diagnostics are reported but do not abort compilation.
	Warning
	// Note diagnostics attach supplementary information to a prior error.
	Note
)

// String returns the conventional lower-case severity name.
func (s Severity) String() string {
	switch s {
	case Error:
		return "error"
	case Warning:
		return "warning"
	case Note:
		return "note"
	default:
		return fmt.Sprintf("severity(%d)", int(s))
	}
}

// Diagnostic is a single compiler message tied to a source position.
type Diagnostic struct {
	Pos      Pos
	Severity Severity
	Message  string
}

// Error implements the error interface, rendering "pos: severity: message".
func (d Diagnostic) Error() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Severity, d.Message)
}

// DiagList collects diagnostics across compiler passes. The zero value is
// ready to use. DiagList is not safe for concurrent use; parallel passes
// collect into per-worker lists and Merge them.
type DiagList struct {
	diags []Diagnostic
	errs  int
}

// Errorf appends an error diagnostic at pos.
func (l *DiagList) Errorf(pos Pos, format string, args ...interface{}) {
	l.diags = append(l.diags, Diagnostic{Pos: pos, Severity: Error, Message: fmt.Sprintf(format, args...)})
	l.errs++
}

// Warnf appends a warning diagnostic at pos.
func (l *DiagList) Warnf(pos Pos, format string, args ...interface{}) {
	l.diags = append(l.diags, Diagnostic{Pos: pos, Severity: Warning, Message: fmt.Sprintf(format, args...)})
}

// Notef appends a note diagnostic at pos.
func (l *DiagList) Notef(pos Pos, format string, args ...interface{}) {
	l.diags = append(l.diags, Diagnostic{Pos: pos, Severity: Note, Message: fmt.Sprintf(format, args...)})
}

// Add appends an already-constructed diagnostic.
func (l *DiagList) Add(d Diagnostic) {
	l.diags = append(l.diags, d)
	if d.Severity == Error {
		l.errs++
	}
}

// Merge appends every diagnostic from other, preserving order.
func (l *DiagList) Merge(other *DiagList) {
	if other == nil {
		return
	}
	l.diags = append(l.diags, other.diags...)
	l.errs += other.errs
}

// HasErrors reports whether any Error-severity diagnostic was recorded.
func (l *DiagList) HasErrors() bool { return l.errs > 0 }

// Len returns the total number of diagnostics of all severities.
func (l *DiagList) Len() int { return len(l.diags) }

// Diags returns the recorded diagnostics in insertion order. The returned
// slice is owned by the list; callers must not modify it.
func (l *DiagList) Diags() []Diagnostic { return l.diags }

// Warnings returns the warning-severity diagnostics as rendered lines.
func (l *DiagList) Warnings() []string {
	var out []string
	for _, d := range l.diags {
		if d.Severity == Warning {
			out = append(out, d.Error())
		}
	}
	return out
}

// Sort orders diagnostics by position (file, then line, then column),
// keeping the relative order of diagnostics at the same position. Parallel
// passes produce diagnostics in nondeterministic order; sorting restores the
// deterministic presentation the paper's environment promises.
func (l *DiagList) Sort() {
	sort.SliceStable(l.diags, func(i, j int) bool {
		a, b := l.diags[i].Pos, l.diags[j].Pos
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Col < b.Col
	})
}

// Err returns nil when no errors were recorded, or an error whose message
// lists every diagnostic, one per line.
func (l *DiagList) Err() error {
	if !l.HasErrors() {
		return nil
	}
	var b strings.Builder
	for i, d := range l.diags {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(d.Error())
	}
	return fmt.Errorf("%s", b.String())
}
