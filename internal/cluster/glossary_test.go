package cluster

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// seriesName matches a series name in README text.
var seriesName = regexp.MustCompile(`resd_[a-z0-9_]+`)

// TestREADMEGlossaryMatchesExposition keeps the README's metrics
// glossary and the exposition naming the same series, in both
// directions. The exposition side is the golden file, which
// TestExpositionGolden holds equal to a live node's snapshot.
func TestREADMEGlossaryMatchesExposition(t *testing.T) {
	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, glossary, ok := strings.Cut(string(readme), "### Metrics glossary\n")
	if !ok {
		t.Fatal("README.md has no metrics glossary")
	}
	documented := map[string]bool{}
	inTable := false
	for _, line := range strings.Split(glossary, "\n") {
		if !strings.HasPrefix(line, "|") {
			if inTable {
				break
			}
			continue
		}
		inTable = true
		for _, name := range seriesName.FindAllString(line, -1) {
			documented[name] = true
		}
	}
	golden, err := os.ReadFile(filepath.FromSlash(expositionGolden))
	if err != nil {
		t.Fatal(err)
	}
	exposed := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(string(golden)), "\n") {
		fields := strings.Split(line, "\t")
		if len(fields) != 4 {
			t.Fatalf("malformed golden line %q", line)
		}
		name, _, _ := strings.Cut(fields[1], "{")
		exposed[name] = true
	}
	for name := range documented {
		if !exposed[name] {
			t.Errorf("the README glossary documents %s, which the exposition does not hold", name)
		}
	}
	for name := range exposed {
		if !documented[name] {
			t.Errorf("series %s has no README glossary row", name)
		}
	}
}
