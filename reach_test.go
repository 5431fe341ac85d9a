package hsmodel

import (
	"os/exec"
	"strings"
	"testing"
)

// testOnlyPackages are internal packages that no program imports by design.
var testOnlyPackages = map[string]bool{
	// faultinject plants failures for tests and for hslint's misuse corpus.
	"hsmodel/internal/faultinject": true,
}

// TestEveryInternalPackageIsReached fails when an internal package is not a
// dependency of any command, example or public package: code that no program
// reaches is either dead or missing its caller.
func TestEveryInternalPackageIsReached(t *testing.T) {
	internal := goList(t, "./internal/...")
	reached := make(map[string]bool)
	for _, p := range goList(t, "-deps", "./cmd/...", "./examples/...", "./pkg/...") {
		reached[p] = true
	}
	for _, p := range internal {
		if !reached[p] && !testOnlyPackages[p] {
			t.Errorf("%s is not imported by any command, example or pkg/ package", p)
		}
	}
}

// goList returns the import paths `go list` prints for args.
func goList(t *testing.T, args ...string) []string {
	t.Helper()
	out, err := exec.Command("go", append([]string{"list"}, args...)...).Output()
	if err != nil {
		t.Fatalf("go list %s: %v", strings.Join(args, " "), err)
	}
	return strings.Fields(string(out))
}
