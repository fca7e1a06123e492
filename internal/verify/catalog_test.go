package verify

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func TestPassCatalog(t *testing.T) {
	names := map[string]bool{}
	prefixes := map[string]bool{}
	for _, p := range passes {
		if p.Name == "" || p.Code == "" {
			t.Fatalf("pass %+v missing metadata", p)
		}
		if names[p.Name] || prefixes[p.Code] {
			t.Fatalf("duplicate pass name/code: %s/%s", p.Name, p.Code)
		}
		names[p.Name] = true
		prefixes[p.Code] = true
		if (p.Needs == NeedMapping) != (p.Name == "dataflow") {
			t.Errorf("pass %s reads the wrong artifact: only dataflow reads the mapping", p.Name)
		}
	}
}

// TestRetiredCodesNeverEmitted scans the package's non-test sources for
// the codes its passes emit: none may be a retired code, and each must
// carry the prefix of a cataloged pass.
func TestRetiredCodesNeverEmitted(t *testing.T) {
	retired := map[string]bool{
		"ROUTE001": true, "ROUTE002": true, "ROUTE003": true,
		"REG003": true, "REG004": true, "CM002": true, "CM003": true,
	}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	emit := regexp.MustCompile(`c\.diag\("([A-Z]+)([0-9]+)"`)
	found := 0
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range emit.FindAllStringSubmatch(string(src), -1) {
			found++
			code := m[1] + m[2]
			if retired[code] {
				t.Errorf("%s emits retired code %s", f, code)
			}
			owned := false
			for _, p := range passes {
				owned = owned || p.Code == m[1]
			}
			if !owned {
				t.Errorf("%s emits %s, which no pass owns", f, code)
			}
		}
	}
	if found == 0 {
		t.Fatal("no c.diag calls found: the scan is broken")
	}
}
