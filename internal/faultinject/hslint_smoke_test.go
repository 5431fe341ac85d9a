package faultinject

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildHslint compiles the real hslint binary into the test's temp dir and
// returns its path plus the module root. The go build cache makes repeated
// builds within one test run cheap.
func buildHslint(t *testing.T) (bin, root string) {
	t.Helper()
	if testing.Short() {
		t.Skip("builds the hslint binary")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root not found at %s: %v", root, err)
	}
	bin = filepath.Join(t.TempDir(), "hslint")
	build := exec.Command("go", "build", "-o", bin, "./cmd/hslint")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building hslint: %v\n%s", err, out)
	}
	return bin, root
}

// runHslint runs the binary from the module root and returns its combined
// output and exit code; a failure to start at all is fatal.
func runHslint(t *testing.T, bin, root string, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Dir = root
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = &buf
	err := cmd.Run()
	if err == nil {
		return buf.String(), 0
	}
	var exitErr *exec.ExitError
	if !errors.As(err, &exitErr) {
		t.Fatalf("running hslint %v: %v\n%s", args, err, buf.String())
	}
	return buf.String(), exitErr.ExitCode()
}

var misuseDir = filepath.Join("internal", "faultinject", "testdata", "misuse")

// TestHslintCatchesMisuseCorpus runs the real binary over the misuse corpus
// in testdata/misuse: the lint must exit non-zero and report every class of
// planted bug. This is the end-to-end proof that the analyzers catch the
// failure modes this package exists to inject.
func TestHslintCatchesMisuseCorpus(t *testing.T) {
	bin, root := buildHslint(t)
	out, code := runHslint(t, bin, root, "-dir", misuseDir)
	if code != 1 {
		t.Fatalf("hslint exit code = %d, want 1 (diagnostics found); output:\n%s", code, out)
	}
	for _, want := range []string{
		"trainMu acquired while mu is held",
		"mu is locked but never unlocked",
		"write to core.Snapshot field version",
		"stored into plain field current",
		"draws from the process-global source",
		"time.Now in a fit/search path",
		"float accumulation into sum",
		"== compared with ErrTrain",
		"wrapped with %v",
		"exact float equality",
		"has no join or cancellation path",
		"which is accessed via sync/atomic",
		"unbounded growth",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("hslint output missing %q; full output:\n%s", want, out)
		}
	}
}

// TestHslintListChecks pins the machine-readable -list contract: one
// name<TAB>doc line per analyzer, including the concurrency suite.
func TestHslintListChecks(t *testing.T) {
	bin, root := buildHslint(t)
	out, code := runHslint(t, bin, root, "-list")
	if code != 0 {
		t.Fatalf("hslint -list exit code = %d, want 0; output:\n%s", code, out)
	}
	names := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		name, doc, ok := strings.Cut(line, "\t")
		if !ok || name == "" || doc == "" {
			t.Errorf("-list line %q is not name<TAB>doc", line)
			continue
		}
		names[name] = true
	}
	for _, want := range []string{"gorolife", "atomicpub", "boundedgrowth", "errcmp"} {
		if !names[want] {
			t.Errorf("-list output missing check %q; output:\n%s", want, out)
		}
	}
}

// TestHslintUnknownCheck pins the discoverability contract: a bad -checks
// name must exit 2 and enumerate the available checks.
func TestHslintUnknownCheck(t *testing.T) {
	bin, root := buildHslint(t)
	out, code := runHslint(t, bin, root, "-checks", "nosuch", "-dir", misuseDir)
	if code != 2 {
		t.Fatalf("hslint -checks nosuch exit code = %d, want 2; output:\n%s", code, out)
	}
	for _, want := range []string{`unknown check "nosuch"`, "available:", "gorolife"} {
		if !strings.Contains(out, want) {
			t.Errorf("unknown-check error missing %q; output:\n%s", want, out)
		}
	}
}

// TestHslintSARIF runs -format sarif over the misuse corpus and parses the
// result: valid SARIF 2.1.0 with a populated rule table and results.
func TestHslintSARIF(t *testing.T) {
	bin, root := buildHslint(t)
	out, code := runHslint(t, bin, root, "-dir", "-format", "sarif", misuseDir)
	if code != 1 {
		t.Fatalf("hslint -format sarif exit code = %d, want 1; output:\n%s", code, out)
	}
	var doc struct {
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("SARIF output is not valid JSON: %v\noutput:\n%s", err, out)
	}
	if doc.Version != "2.1.0" {
		t.Errorf("SARIF version = %q, want 2.1.0", doc.Version)
	}
	if len(doc.Runs) != 1 {
		t.Fatalf("SARIF runs = %d, want 1", len(doc.Runs))
	}
	if len(doc.Runs[0].Tool.Driver.Rules) == 0 || len(doc.Runs[0].Results) == 0 {
		t.Fatalf("SARIF run has %d rules and %d results, want both non-empty",
			len(doc.Runs[0].Tool.Driver.Rules), len(doc.Runs[0].Results))
	}
	for _, r := range doc.Runs[0].Results {
		for _, loc := range r.Locations {
			uri := loc.PhysicalLocation.ArtifactLocation.URI
			if filepath.IsAbs(uri) || strings.Contains(uri, "\\") {
				t.Errorf("SARIF artifact URI %q is not a relative slash path", uri)
			}
		}
	}
}
