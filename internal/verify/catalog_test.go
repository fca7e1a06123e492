package verify

import "testing"

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
	}
}
