package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// Marker comments recognized by the checks. A marker applies to a function
// when it appears in (or immediately above) the function's doc comment, and
// to a statement or expression when it appears on the same line or the line
// directly above.
const (
	markerNoalloc = "spear:noalloc"
	markerTiming  = "spear:timing"
	markerSorted  = "spear:sorted"

	// markerSlowpath marks a function as an audited cold path: error
	// constructors and capacity-growth helpers that //spear:noalloc
	// functions may call even though their bodies allocate. The marker is
	// the explicit escape hatch of the noalloc check's call rule; the
	// runtime AllocsPerRun gates remain the proof that slowpath callees
	// stay off the warm path.
	markerSlowpath = "spear:slowpath"

	// markerDyncall marks a call site through an interface or function
	// value inside a //spear:noalloc function as audited: the author
	// asserts every implementation reachable there is allocation-free,
	// which the static call graph cannot prove.
	markerDyncall = "spear:dyncall"

	// Concurrency-discipline markers (concurrency.go). markerAtomic on a
	// struct field restricts every access to sync/atomic operations;
	// markerGuardedBy ("spear:guardedby(mu)") names the sibling mutex that
	// must be held across every access; markerLocked
	// ("spear:locked(mu)") on a method asserts the caller already holds
	// receiver.mu; markerInit and markerXclusive exempt constructor and
	// single-writer (setup/reset) functions from the atomic and guard
	// disciplines — markerXclusive on a field asserts the field is only
	// touched from such single-writer phases; markerDetached on a go
	// statement waives the same-function join requirement for an audited
	// fire-and-forget goroutine.
	markerAtomic    = "spear:atomic"
	markerGuardedBy = "spear:guardedby"
	markerLocked    = "spear:locked"
	markerInit      = "spear:init"
	markerXclusive  = "spear:xclusive"
	markerDetached  = "spear:detached"

	// Dataflow-check markers (errflow.go, ctxpoll.go). markerIgnoreErr
	// ("spear:ignoreerr(reason)") on an assignment or call discards the
	// error result deliberately; markerNopoll ("spear:nopoll(reason)") on a
	// loop header exempts a bounded loop from the context-poll requirement.
	// Both require a non-empty reason — the annotation is an audited claim,
	// not a mute button.
	markerIgnoreErr = "spear:ignoreerr"
	markerNopoll    = "spear:nopoll"
)

// allMarkers lists every marker indexMarkers scans for.
var allMarkers = []string{
	markerNoalloc, markerTiming, markerSorted,
	markerSlowpath, markerDyncall,
	markerAtomic, markerGuardedBy, markerLocked,
	markerInit, markerXclusive, markerDetached,
	markerIgnoreErr, markerNopoll,
}

// markerIndex records, per marker, the source lines of one file that carry
// it, along with the marker's parenthesized argument on that line (empty for
// argument-less markers).
type markerIndex struct {
	lines map[string]map[int]bool
	args  map[string]map[int]string
}

// carriesMarker reports whether one line of comment text is a marker
// annotation: the marker must open the comment's content, so prose that
// merely mentions "//spear:noalloc" mid-sentence does not annotate anything.
func carriesMarker(line, marker string) bool {
	_, ok := markerArgFrom(line, marker)
	return ok
}

// markerArgFrom matches one comment line against a marker and extracts its
// parenthesized argument, so "//spear:guardedby(mu)" yields ("mu", true).
// Markers without an argument yield ("", true); non-matching lines yield
// ("", false).
func markerArgFrom(line, marker string) (string, bool) {
	line = strings.TrimSpace(line)
	line = strings.TrimPrefix(line, "//")
	line = strings.TrimPrefix(line, "/*")
	line = strings.TrimSpace(line)
	if !strings.HasPrefix(line, marker) {
		return "", false
	}
	rest := line[len(marker):]
	if strings.HasPrefix(rest, "(") {
		if end := strings.Index(rest, ")"); end > 0 {
			return strings.TrimSpace(rest[1:end]), true
		}
	}
	return "", true
}

// docArg scans a comment group for the marker and returns its argument.
func docArg(doc *ast.CommentGroup, marker string) (string, bool) {
	if doc == nil {
		return "", false
	}
	for _, c := range doc.List {
		for _, text := range strings.Split(c.Text, "\n") {
			if arg, ok := markerArgFrom(text, marker); ok {
				return arg, true
			}
		}
	}
	return "", false
}

// fieldArg reports whether a struct field carries the marker — in its doc
// comment (the line above) or its line comment (same line) — and extracts
// the marker's argument.
func fieldArg(f *ast.Field, marker string) (string, bool) {
	if arg, ok := docArg(f.Doc, marker); ok {
		return arg, true
	}
	return docArg(f.Comment, marker)
}

// indexMarkers scans every comment of the file for marker occurrences.
func indexMarkers(fset *token.FileSet, file *ast.File) *markerIndex {
	idx := &markerIndex{
		lines: make(map[string]map[int]bool),
		args:  make(map[string]map[int]string),
	}
	for _, group := range file.Comments {
		for _, c := range group.List {
			start := fset.Position(c.Pos()).Line
			for i, text := range strings.Split(c.Text, "\n") {
				for _, m := range allMarkers {
					arg, ok := markerArgFrom(text, m)
					if !ok {
						continue
					}
					if idx.lines[m] == nil {
						idx.lines[m] = make(map[int]bool)
						idx.args[m] = make(map[int]string)
					}
					idx.lines[m][start+i] = true
					idx.args[m][start+i] = arg
				}
			}
		}
	}
	return idx
}

// at reports whether the marker annotates the source position: same line or
// the line directly above (a standalone marker comment).
func (idx *markerIndex) at(fset *token.FileSet, pos token.Pos, marker string) bool {
	lines := idx.lines[marker]
	if lines == nil {
		return false
	}
	line := fset.Position(pos).Line
	return lines[line] || lines[line-1]
}

// argAt returns the marker's argument when the marker annotates the source
// position: same line or the line directly above.
func (idx *markerIndex) argAt(fset *token.FileSet, pos token.Pos, marker string) (string, bool) {
	lines := idx.lines[marker]
	if lines == nil {
		return "", false
	}
	line := fset.Position(pos).Line
	for _, l := range []int{line, line - 1} {
		if lines[l] {
			return idx.args[marker][l], true
		}
	}
	return "", false
}

// onFunc reports whether the marker annotates the function declaration: in
// its doc comment, or on the line directly above the declaration.
func (idx *markerIndex) onFunc(fset *token.FileSet, fd *ast.FuncDecl, marker string) bool {
	return inDoc(fd.Doc, marker) || idx.at(fset, fd.Pos(), marker)
}

// funcArg is onFunc plus argument extraction: the marker's parenthesized
// argument from the doc comment or the line directly above the declaration.
func (idx *markerIndex) funcArg(fset *token.FileSet, fd *ast.FuncDecl, marker string) (string, bool) {
	if arg, ok := docArg(fd.Doc, marker); ok {
		return arg, true
	}
	lines := idx.lines[marker]
	if lines == nil {
		return "", false
	}
	line := fset.Position(fd.Pos()).Line
	for _, l := range []int{line, line - 1} {
		if lines[l] {
			return idx.args[marker][l], true
		}
	}
	return "", false
}

// inDoc reports whether any line of the comment group carries the marker.
func inDoc(doc *ast.CommentGroup, marker string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		for _, text := range strings.Split(c.Text, "\n") {
			if carriesMarker(text, marker) {
				return true
			}
		}
	}
	return false
}
