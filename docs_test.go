package pruner

import (
	"go/scanner"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// docsNamingCode are the reference docs whose backticked names must exist
// in the module.
var docsNamingCode = []string{"DESIGN.md", "API.md", "bench/README.md"}

// docsExternalNames are the backticked names the docs may use although no
// Go file of the module spells them: assembler mnemonics and standard
// library members.
var docsExternalNames = map[string]bool{"VMULPD": true, "VADDPD": true, "DefaultServeMux": true}

var (
	// goShapedName is `Name`, `pkg.Name` or `Recv.Method`, optionally
	// behind `*` (a pointer, or a suffix family such as `*_us`), followed
	// by `()`, or ending in a `*` prefix family such as `TestAlloc*`.
	goShapedName = regexp.MustCompile(`^\*?([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)(\.?\*|\(\))?$`)
	docFileName  = regexp.MustCompile(`^[\w./-]*\w\.(?:go|s|json|lock|yml)$|^(?:[\w./-]*/)?Makefile$`)
	pinFunc      = regexp.MustCompile(`(?m)^func (Test\w*Pinned|Test\w*Golden\w*)\(`)
	// designRef is a DESIGN.md §N reference, possibly broken across
	// comment lines, with any ", §M", " and §M" or "/§M" that follow.
	designRef   = regexp.MustCompile(`DESIGN\.md[\s#/*("]*§(\d+)((?:(?:, and|,| and| or|/)[\s#/*]*§\d+)*)`)
	sectionMark = regexp.MustCompile(`§(\d+)`)
	sectionHead = regexp.MustCompile(`(?m)^## §(\d+) `)
	// codeSpan is a Markdown code span: double backticks around text that
	// may hold single ones, or single backticks.
	codeSpan = regexp.MustCompile("``(.+?)``|`([^`]+)`")
	word     = regexp.MustCompile(`\w+`)
)

// TestDocsNameOnlyExistingCode keeps the docs about the code at HEAD:
//
//   - every backticked Go-shaped name in the reference docs is spelled by
//     some Go file of the module (an identifier, or a word inside a string
//     literal, so metric names and JSON keys count), and every backticked
//     file name names a file in the tree;
//   - every Test…Pinned and Test…Golden… function is named in DESIGN.md;
//   - DESIGN.md's sections run §1…§N without a gap, and every DESIGN.md §N
//     reference in the tree, and every §N inside DESIGN.md, names one.
func TestDocsNameOnlyExistingCode(t *testing.T) {
	tokens, files := map[string]bool{}, map[string]bool{}
	var pins, refFiles []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == ".git" || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		files[d.Name()] = true
		switch {
		case strings.HasSuffix(path, ".go"):
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			goTokens(src, tokens)
			for _, m := range pinFunc.FindAllSubmatch(src, -1) {
				pins = append(pins, string(m[1]))
			}
			refFiles = append(refFiles, path)
		case strings.HasSuffix(path, ".md") && !strings.Contains(path, "/"):
			// Top-level Markdown other than the two reference docs is the
			// history, the plans and the paper's abstract: it quotes
			// section numbers as they stood when it was written.
			if path == "DESIGN.md" || path == "API.md" {
				refFiles = append(refFiles, path)
			}
		case strings.HasSuffix(path, ".md"), strings.HasSuffix(path, ".yml"), d.Name() == "Makefile":
			refFiles = append(refFiles, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// (a) Backticked names and file names exist.
	for _, doc := range docsNamingCode {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, span := range codeSpans(string(src)) {
			if docFileName.MatchString(span) {
				if _, err := os.Stat(span); err != nil && !files[filepath.Base(span)] {
					t.Errorf("%s: `%s` names no file in the tree", doc, span)
				}
				continue
			}
			m := goShapedName.FindStringSubmatch(span)
			if m == nil {
				continue
			}
			for _, part := range strings.Split(m[1], ".") {
				switch {
				case tokens[part], docsExternalNames[part]:
				case m[2] == "*" && strings.HasSuffix(m[1], part) && tokenWith(tokens, part, strings.HasPrefix):
				case span[0] == '*' && strings.HasPrefix(m[1], part) && tokenWith(tokens, part, strings.HasSuffix):
				default:
					t.Errorf("%s: `%s` names %q, which no Go file of the module spells", doc, span, part)
				}
			}
		}
	}

	// (b) Every pin is named in DESIGN.md.
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	designWords := map[string]bool{}
	for _, w := range word.FindAllString(string(design), -1) {
		designWords[w] = true
	}
	for _, pin := range pins {
		if !designWords[pin] {
			t.Errorf("DESIGN.md does not name the pin %s", pin)
		}
	}

	// (c) Sections run without a gap, and every reference names one.
	sections := map[string]bool{}
	for i, m := range sectionHead.FindAllStringSubmatch(string(design), -1) {
		if m[1] != strconv.Itoa(i+1) {
			t.Errorf("DESIGN.md section %d is numbered §%s", i+1, m[1])
		}
		sections[m[1]] = true
	}
	for _, m := range sectionMark.FindAllStringSubmatch(string(design), -1) {
		if !sections[m[1]] {
			t.Errorf("DESIGN.md refers to §%s, which it does not have", m[1])
		}
	}
	for _, path := range refFiles {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range designRef.FindAllStringSubmatch(string(src), -1) {
			for _, n := range sectionMark.FindAllStringSubmatch("§"+m[1]+m[2], -1) {
				if !sections[n[1]] {
					t.Errorf("%s: DESIGN.md §%s names no section", path, n[1])
				}
			}
		}
	}
}

// goTokens adds src's identifiers and keywords, and the words inside its
// string and rune literals, to tokens.
func goTokens(src []byte, tokens map[string]bool) {
	var s scanner.Scanner
	s.Init(token.NewFileSet().AddFile("", -1, len(src)), src, nil, 0)
	for {
		_, tok, lit := s.Scan()
		switch {
		case tok == token.EOF:
			return
		case tok == token.IDENT, tok.IsKeyword():
			tokens[lit] = true
		case tok == token.STRING, tok == token.CHAR:
			for _, w := range word.FindAllString(lit, -1) {
				tokens[w] = true
			}
		}
	}
}

// tokenWith reports whether some token has part as its prefix or suffix,
// the two wildcard families a doc may name (`TestAlloc*`, `*_us`).
func tokenWith(tokens map[string]bool, part string, has func(s, affix string) bool) bool {
	for tok := range tokens {
		if has(tok, part) {
			return true
		}
	}
	return false
}

// codeSpans returns the trimmed contents of the Markdown code spans in src
// outside fenced blocks.
func codeSpans(src string) []string {
	var text strings.Builder
	fenced := false
	for _, line := range strings.Split(src, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
		} else if !fenced {
			text.WriteString(line + "\n")
		}
	}
	var spans []string
	for _, m := range codeSpan.FindAllStringSubmatch(text.String(), -1) {
		spans = append(spans, strings.TrimSpace(strings.ReplaceAll(m[1]+m[2], "\n", " ")))
	}
	return spans
}
