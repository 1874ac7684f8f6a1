package experiments

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"maps"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"
)

// goldenPath pins the absolute output of the 25 Small-profile reports at
// the default seed, one SHA-256 per artifact in sha256sum format: a
// `cdlab run all -o DIR` sweep verifies with `(cd DIR && sha256sum -c FILE)`.
const goldenPath = "testdata/golden_small.sha256"

// updateGolden re-blesses goldenPath from the current code. A re-bless is a
// deliberate numeric change: log why in CHANGES.md alongside it.
var updateGolden = flag.Bool("update", false, "rewrite "+goldenPath+" from the current reports")

var golden struct {
	want map[string]string // experiment ID → hex digest, loaded by TestMain
	err  error

	mu  sync.Mutex
	got map[string]string // digests observed with -update
}

func loadGolden() (map[string]string, error) {
	f, err := os.Open(goldenPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		sum, name, ok := strings.Cut(sc.Text(), "  ")
		id, isTxt := strings.CutSuffix(name, ".txt")
		if !ok || !isTxt || len(sum) != 2*sha256.Size {
			return nil, fmt.Errorf("%s: malformed line %q", goldenPath, sc.Text())
		}
		want[id] = sum
	}
	return want, sc.Err()
}

// checkGolden compares one rendered report against its pinned digest, or
// records it when -update is set (written out by TestMain).
func checkGolden(t *testing.T, id, report string) {
	t.Helper()
	sum := sha256.Sum256([]byte(report))
	got := hex.EncodeToString(sum[:])
	if *updateGolden {
		golden.mu.Lock()
		golden.got[id] = got
		golden.mu.Unlock()
		return
	}
	if golden.err != nil {
		t.Fatalf("golden digests: %v (bless with -update)", golden.err)
	}
	want, ok := golden.want[id]
	if !ok {
		t.Fatalf("%s has no golden digest in %s (bless with -update)", id, goldenPath)
	}
	if got != want {
		t.Fatalf("%s report drifted from its golden digest:\n got  %s\n want %s\n"+
			"a deliberate numeric change re-blesses with -update and a CHANGES.md line saying why",
			id, got, want)
	}
}

// TestGoldenCoversRegistry keeps the digest file and the registry in step:
// every registered artifact is pinned and no stale entry survives a rename.
func TestGoldenCoversRegistry(t *testing.T) {
	if *updateGolden {
		t.Skip("re-blessing")
	}
	if golden.err != nil {
		t.Fatalf("golden digests: %v (bless with -update)", golden.err)
	}
	stale := maps.Clone(golden.want)
	for _, e := range All() {
		if _, ok := stale[e.ID]; !ok {
			t.Errorf("%s has no golden digest", e.ID)
		}
		delete(stale, e.ID)
	}
	for id := range stale {
		t.Errorf("golden digest for unregistered experiment %s", id)
	}
}

func TestMain(m *testing.M) {
	flag.Parse()
	golden.got = map[string]string{}
	golden.want, golden.err = loadGolden()
	code := m.Run()
	if *updateGolden && code == 0 {
		if err := writeGolden(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			code = 1
		}
	}
	os.Exit(code)
}

// writeGolden merges the digests observed in this run into goldenPath, so a
// -run filtered re-bless touches only the artifacts it rendered.
func writeGolden() error {
	if golden.err != nil && !os.IsNotExist(golden.err) {
		return golden.err
	}
	all := map[string]string{}
	maps.Copy(all, golden.want)
	maps.Copy(all, golden.got)
	ids := make([]string, 0, len(all))
	for id := range all {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var b strings.Builder
	for _, id := range ids {
		fmt.Fprintf(&b, "%s  %s.txt\n", all[id], id)
	}
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		return err
	}
	return os.WriteFile(goldenPath, []byte(b.String()), 0o644)
}
