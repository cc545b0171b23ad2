package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// Marker comments recognized by the checks. A marker applies to a statement
// or expression when it appears on the same line or the line directly above.
const (
	// markerSorted on a range over a map asserts that the loop's effect
	// does not depend on iteration order (determinism).
	markerSorted = "spear:sorted"

	// markerIgnoreErr ("spear:ignoreerr(reason)") on an assignment or call
	// discards the error result deliberately (errflow). It requires a
	// non-empty reason — the annotation is an audited claim, not a mute
	// button.
	markerIgnoreErr = "spear:ignoreerr"
)

// allMarkers lists every marker indexMarkers scans for.
var allMarkers = []string{markerSorted, markerIgnoreErr}

// markerIndex records, per marker, the source lines of one file that carry
// it, along with the marker's parenthesized argument on that line (empty for
// argument-less markers).
type markerIndex struct {
	lines map[string]map[int]bool
	args  map[string]map[int]string
}

// markerArgFrom matches one comment line against a marker and extracts its
// parenthesized argument, so "//spear:ignoreerr(why)" yields ("why", true). The
// marker must open the comment's content: prose that mentions a marker
// mid-sentence annotates nothing.
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
