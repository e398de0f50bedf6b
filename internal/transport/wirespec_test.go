package transport

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// wireKinds parses transport.go and returns the number of frame kinds in
// its Kind const block and the value of protocolVersion. The block must
// keep the `KindData Kind = iota + 1` form with every later kind implicit,
// so kind i (from 0) is numbered i+1 on the wire.
func wireKinds(t *testing.T) (kinds int, version int) {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "transport.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	version = -1
	for _, d := range f.Decls {
		gd, ok := d.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		first := gd.Specs[0].(*ast.ValueSpec)
		if first.Names[0].Name == "protocolVersion" {
			lit, ok := first.Values[0].(*ast.BasicLit)
			if !ok {
				t.Fatalf("protocolVersion is not a literal")
			}
			if version, err = strconv.Atoi(lit.Value); err != nil {
				t.Fatal(err)
			}
		}
		if id, ok := first.Type.(*ast.Ident); !ok || id.Name != "Kind" {
			continue
		}
		if kinds > 0 {
			t.Fatalf("transport.go has two Kind const blocks")
		}
		if b, ok := first.Values[0].(*ast.BinaryExpr); !ok || b.Op != token.ADD ||
			b.X.(*ast.Ident).Name != "iota" || b.Y.(*ast.BasicLit).Value != "1" {
			t.Fatalf("the Kind block no longer starts at iota + 1")
		}
		for _, s := range gd.Specs[1:] {
			if vs := s.(*ast.ValueSpec); len(vs.Values) > 0 || vs.Type != nil {
				t.Fatalf("kind %s is not implicit: the wire numbers would not be consecutive", vs.Names[0].Name)
			}
		}
		kinds = len(gd.Specs)
	}
	if kinds == 0 || version < 0 {
		t.Fatalf("found %d kinds and protocol version %d in transport.go", kinds, version)
	}
	return kinds, version
}

var countWords = map[string]int{
	"one": 1, "two": 2, "three": 3, "four": 4, "five": 5, "six": 6, "seven": 7,
	"eight": 8, "nine": 9, "ten": 10, "eleven": 11, "twelve": 12, "thirteen": 13,
}

// TestDesignWireSpecMatchesCode: DESIGN.md's wire block names every frame
// kind of transport.go's Kind block exactly once, by its wire number, and
// its "Version N has K frame kinds" sentence states protocolVersion and
// that count.
func TestDesignWireSpecMatchesCode(t *testing.T) {
	kinds, version := wireKinds(t)
	raw, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	start := strings.Index(doc, "### Wire protocol")
	if start < 0 {
		t.Fatal("DESIGN.md has no \"### Wire protocol\" section")
	}
	sec := doc[start:]
	if end := strings.Index(sec[1:], "\n### "); end >= 0 {
		sec = sec[:end+1]
	}

	m := regexp.MustCompile(`Version (\d+) has (\w+) frame kinds`).FindStringSubmatch(sec)
	if m == nil {
		t.Fatal("the wire section has no \"Version N has K frame kinds\" sentence")
	}
	if v, _ := strconv.Atoi(m[1]); v != version {
		t.Errorf("DESIGN.md says version %d, protocolVersion is %d", v, version)
	}
	k, isWord := countWords[m[2]]
	if !isWord {
		k, _ = strconv.Atoi(m[2])
	}
	if k != kinds {
		t.Errorf("DESIGN.md says %s frame kinds, transport.go declares %d", m[2], kinds)
	}

	_, block, ok := strings.Cut(sec, "```")
	if block, _, ok = strings.Cut(block, "```"); !ok {
		t.Fatal("the wire section has no code block")
	}
	seen := map[int]int{}
	for _, g := range regexp.MustCompile(`\(kind (\d+)\)`).FindAllStringSubmatch(block, -1) {
		n, _ := strconv.Atoi(g[1])
		seen[n]++
	}
	for n := 1; n <= kinds; n++ {
		if seen[n] != 1 {
			t.Errorf("the wire block names (kind %d) %d times, want once", n, seen[n])
		}
	}
	if len(seen) != kinds {
		t.Errorf("the wire block names %d distinct kinds, transport.go declares %d", len(seen), kinds)
	}
}
