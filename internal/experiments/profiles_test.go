package experiments

import (
	"strings"
	"testing"
)

func TestBuiltinProfiles(t *testing.T) {
	small, ok := ProfileByName("small")
	if !ok || small.Config != Small() {
		t.Fatalf("small profile = %+v, %v", small, ok)
	}
	full, ok := ProfileByName("full")
	if !ok || full.Config != Full() {
		t.Fatalf("full profile = %+v, %v", full, ok)
	}
	names := []string{}
	for _, p := range Profiles() {
		names = append(names, p.Name)
		if p.Description == "" {
			t.Fatalf("profile %s has no description", p.Name)
		}
	}
	// Sorted by name, and both built-ins present.
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("profiles not sorted: %v", names)
		}
	}
}

func TestRegisterProfileValidation(t *testing.T) {
	if err := RegisterProfile(Profile{Name: ""}); err == nil {
		t.Fatal("empty profile name accepted")
	}
	if err := RegisterProfile(Profile{Name: "small", Config: Full()}); err == nil {
		t.Fatal("shadowing a built-in profile accepted")
	}
	if err := RegisterProfile(Profile{Name: "prof-test-tiny", Description: "t", Config: Small()}); err != nil {
		t.Fatal(err)
	}
	if _, ok := ProfileByName("prof-test-tiny"); !ok {
		t.Fatal("registered profile not found")
	}
}

func TestApplyOverridesEveryKey(t *testing.T) {
	base := Small()
	got, err := ApplyOverrides(base, map[string]string{
		"seed":                 "99",
		"subarrays-per-module": "7",
		"ttf-samples":          "11",
		"mixes":                "5",
		"measure-instr":        "123456",
		"cell-rows":            "64",
		"cell-cols":            "96",
	})
	if err != nil {
		t.Fatal(err)
	}
	want := Config{
		SubarraysPerModule: 7, TTFSamples: 11, Mixes: 5, MeasureInstr: 123456,
		CellRows: 64, CellCols: 96, Seed: 99,
	}
	if got != want {
		t.Fatalf("ApplyOverrides = %+v, want %+v", got, want)
	}
	// The key table covers the whole struct: every override key changed its
	// field away from the base, so the digest must differ too.
	if got.Digest() == base.Digest() {
		t.Fatal("overridden config digests like the base config")
	}
}

func TestApplyOverridesErrors(t *testing.T) {
	base := Small()
	for name, ov := range map[string]map[string]string{
		"unknown key":    {"workers": "4"},
		"not an integer": {"mixes": "three"},
		"zero count":     {"ttf-samples": "0"},
		"negative seed":  {"seed": "-1"},
	} {
		got, err := ApplyOverrides(base, ov)
		if err == nil {
			t.Fatalf("%s: accepted %v", name, ov)
		}
		if got != base {
			t.Fatalf("%s: config mutated on error: %+v", name, got)
		}
	}
	// Unknown-key errors teach the valid vocabulary.
	_, err := ApplyOverrides(base, map[string]string{"nope": "1"})
	if err == nil || !strings.Contains(err.Error(), "subarrays-per-module") {
		t.Fatalf("unknown-key error does not list valid keys: %v", err)
	}
}

func TestResolveConfig(t *testing.T) {
	cfg, err := ResolveConfig("", nil)
	if err != nil || cfg != Small() {
		t.Fatalf("empty profile resolves to %+v, %v (want small)", cfg, err)
	}
	cfg, err = ResolveConfig("full", map[string]string{"seed": "3"})
	if err != nil {
		t.Fatal(err)
	}
	want := Full()
	want.Seed = 3
	if cfg != want {
		t.Fatalf("full+seed=3 resolves to %+v", cfg)
	}
	if _, err := ResolveConfig("nope", nil); err == nil {
		t.Fatal("unknown profile accepted")
	}
	if _, err := ResolveConfig("small", map[string]string{"bad": "1"}); err == nil {
		t.Fatal("bad override accepted")
	}
	// Retired keys are unknown, not silently ignored.
	for _, key := range []string{"retention-trials", "max-shard-share"} {
		_, err = ResolveConfig("small", map[string]string{key: "1"})
		if err == nil || !strings.Contains(err.Error(), `unknown override "`+key+`"`) {
			t.Fatalf("%s override: %v, want unknown-key error", key, err)
		}
	}
	// Same resolution ⇒ same digest: the property remote/local cache
	// sharing rests on.
	a, _ := ResolveConfig("small", map[string]string{"seed": "5"})
	b, _ := ResolveConfig("small", map[string]string{"seed": "5"})
	if a.Digest() != b.Digest() {
		t.Fatal("identical requests resolved to different digests")
	}
}
