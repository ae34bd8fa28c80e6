package qtls_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"qtls/internal/perf/figures"
)

// The docs whose command lines must only cite flags that exist.
var citingDocs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "bench/README.md"}

// The commands whose flags the docs cite, each defined in cmd/<name>.
var citedCommands = []string{"qtlsserver", "qtlsload", "qatinfo", "qtlsbench"}

// Every -flag a doc cites on a command line of one of the commands is
// defined by that command's flag calls in cmd/<name>/*.go.
func TestDocsCiteDefinedFlags(t *testing.T) {
	defined := map[string][]string{}
	for _, cmd := range citedCommands {
		defined[cmd] = definedFlags(t, filepath.Join("cmd", cmd))
		if len(defined[cmd]) == 0 {
			t.Fatalf("cmd/%s defines no flags: the flag-call parser is broken", cmd)
		}
	}
	cited := 0
	for _, doc := range citingDocs {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range commandLines(string(b)) {
			for _, c := range citedFlags(line) {
				cited++
				if !slices.Contains(defined[c.cmd], c.flag) {
					t.Errorf("%s cites %s -%s, which cmd/%s does not define (in %q)", doc, c.cmd, c.flag, c.cmd, line)
				}
			}
		}
	}
	if cited == 0 {
		t.Fatal("no cited flags found: the markdown scanner is broken")
	}
}

// The docs whose qtlsbench command lines must only run experiments that
// exist.
var experimentDocs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}

// Every experiment id a doc passes to qtlsbench -run is one figures.IDs
// lists: a deleted experiment leaves no command behind that fails as an
// unknown id.
func TestDocsRunKnownExperiments(t *testing.T) {
	known := figures.IDs()
	cited := 0
	for _, doc := range experimentDocs {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range commandLines(string(b)) {
			for _, id := range runIDs(line) {
				cited++
				if !slices.Contains(known, id) {
					t.Errorf("%s runs qtlsbench -run %s, which is not an experiment id (in %q)", doc, id, line)
				}
			}
		}
	}
	if cited == 0 {
		t.Fatal("no qtlsbench -run ids found: the markdown scanner is broken")
	}
}

// runIDs returns the experiment ids passed to qtlsbench's -run in one
// command line (-run a,b or -run=a,b). A placeholder such as <id> is not
// an id.
func runIDs(line string) []string {
	var out []string
	inBench := false
	words := shellWords(line)
	for i, word := range words {
		var list string
		switch {
		case slices.Contains(citedCommands, filepath.Base(word)):
			inBench = filepath.Base(word) == "qtlsbench"
		case word == "|" || word == "&&" || word == ";" || strings.HasPrefix(word, "#"):
			inBench = false
		case inBench && (word == "-run" || word == "--run") && i+1 < len(words):
			list = words[i+1]
		case inBench && strings.HasPrefix(word, "-run="):
			list = strings.TrimPrefix(word, "-run=")
		}
		for _, id := range strings.Split(list, ",") {
			if id != "" && !strings.HasPrefix(id, "<") {
				out = append(out, id)
			}
		}
	}
	return out
}

// flagMethods are the flag and flag.FlagSet methods that define a flag;
// the name is the first string-literal argument.
var flagMethods = []string{"Bool", "BoolVar", "BoolFunc", "Duration", "DurationVar",
	"Float64", "Float64Var", "Func", "Int", "Int64", "Int64Var", "IntVar", "String",
	"StringVar", "TextVar", "Uint", "Uint64", "Uint64Var", "UintVar", "Var"}

// definedFlags parses the non-test Go files of dir and returns the name
// of every flag they define.
func definedFlags(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !slices.Contains(flagMethods, sel.Sel.Name) {
				return true
			}
			for _, arg := range call.Args {
				if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					if name, err := strconv.Unquote(lit.Value); err == nil {
						names = append(names, name)
					}
					break
				}
			}
			return true
		})
	}
	return names
}

var (
	fence    = regexp.MustCompile("(?s)```[^\n]*\n(.*?)```")
	codeSpan = regexp.MustCompile("`([^`]+)`")
)

// commandLines returns the places in markdown a command line can be
// written: each line of a fenced block (backslash continuations joined)
// and each inline code span (which may wrap across lines).
func commandLines(md string) []string {
	var out []string
	for _, m := range fence.FindAllStringSubmatch(md, -1) {
		body := strings.ReplaceAll(m[1], "\\\n", " ")
		out = append(out, strings.Split(body, "\n")...)
	}
	for _, m := range codeSpan.FindAllStringSubmatch(fence.ReplaceAllString(md, ""), -1) {
		out = append(out, m[1])
	}
	return out
}

// citation is one -flag written after a command's name.
type citation struct{ cmd, flag string }

// citedFlags returns the flags written after a command name in one
// command line. A command's arguments end at a shell separator, a
// comment or the next command, and an argument like -asym-threshold/-sym-threshold cites both flags.
func citedFlags(line string) []citation {
	var out []citation
	cmd := ""
	for _, word := range shellWords(line) {
		switch {
		case slices.Contains(citedCommands, filepath.Base(word)):
			cmd = filepath.Base(word)
		case word == "|" || word == "&&" || word == ";" || strings.HasPrefix(word, "#"):
			cmd = ""
		case cmd != "" && strings.HasPrefix(word, "-"):
			for _, part := range strings.Split(word, "/") {
				name, _, _ := strings.Cut(strings.TrimLeft(part, "-"), "=")
				if strings.HasPrefix(part, "-") && name != "" && isFlagName(name) {
					out = append(out, citation{cmd, name})
				}
			}
		}
	}
	return out
}

// isFlagName reports whether s reads as a flag name, not a negative
// number or punctuation.
func isFlagName(s string) bool {
	if s[0] < 'a' || s[0] > 'z' {
		return false
	}
	for _, r := range s {
		if !(r >= 'a' && r <= 'z' || r >= '0' && r <= '9' || r == '-') {
			return false
		}
	}
	return true
}

// shellWords splits a command line into words at blanks and newlines,
// dropping single- and double-quoted strings: those are values.
func shellWords(line string) []string {
	var out []string
	for i := 0; i < len(line); {
		switch c := line[i]; {
		case c == ' ' || c == '\t' || c == '\n':
			i++
		case c == '\'' || c == '"':
			end := strings.IndexByte(line[i+1:], c)
			if end < 0 {
				end = len(line) - i - 1
			}
			i += end + 2
		default:
			end := strings.IndexAny(line[i:], " \t\n")
			if end < 0 {
				end = len(line) - i
			}
			out = append(out, line[i:i+end])
			i += end
		}
	}
	return out
}
