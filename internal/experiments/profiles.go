package experiments

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
)

// Profile is a named base configuration. The two built-ins mirror the
// seed-era presets — "small" (benchmark scale) and "full" (paper breadth) —
// and callers can register richer scenario profiles on top (ColumnKeeper-
// and ScaleDisturb-style studies need sweeps the old small/full boolean
// could not express). A run's effective Config is the profile's Config with
// any per-run overrides applied (ApplyOverrides); because Config.Digest
// hashes the resolved struct, two runs agree on cache keys exactly when
// they resolved to the same configuration, regardless of which profile or
// override spelling produced it.
type Profile struct {
	// Name identifies the profile in requests ("small", "full", ...).
	Name string
	// Description is a one-line summary for listings.
	Description string
	// Config is the base configuration the profile denotes.
	Config Config
}

var (
	profileMu sync.RWMutex
	profiles  = map[string]Profile{}
)

func init() {
	mustRegisterProfile(Profile{
		Name:        "small",
		Description: "benchmark-scale configuration (laptop-friendly, used by go test -bench)",
		Config:      Small(),
	})
	mustRegisterProfile(Profile{
		Name:        "full",
		Description: "paper-breadth sweep configuration (cdlab run -profile full)",
		Config:      Full(),
	})
}

func mustRegisterProfile(p Profile) {
	if err := RegisterProfile(p); err != nil {
		panic(err)
	}
}

// RegisterProfile adds a named profile to the registry. Names must be
// non-empty and unique; registering over an existing name is an error, so a
// typo cannot silently shadow a built-in.
func RegisterProfile(p Profile) error {
	if p.Name == "" {
		return fmt.Errorf("experiments: profile with empty name")
	}
	profileMu.Lock()
	defer profileMu.Unlock()
	if _, dup := profiles[p.Name]; dup {
		return fmt.Errorf("experiments: profile %q already registered", p.Name)
	}
	profiles[p.Name] = p
	return nil
}

// ProfileByName looks up one profile.
func ProfileByName(name string) (Profile, bool) {
	profileMu.RLock()
	defer profileMu.RUnlock()
	p, ok := profiles[name]
	return p, ok
}

// Profiles returns every registered profile sorted by name.
func Profiles() []Profile {
	profileMu.RLock()
	defer profileMu.RUnlock()
	out := make([]Profile, 0, len(profiles))
	for _, p := range profiles {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// overrideField couples one overridable Config field with its request key
// and a validating setter. The keys are the wire spelling used by request
// overrides, `cdlab run -set key=value` and profile derivation.
type overrideField struct {
	key string
	doc string
	set func(*Config, string) error
}

func intSetter(min int, assign func(*Config, int)) func(*Config, string) error {
	return func(c *Config, s string) error {
		v, err := strconv.Atoi(s)
		if err != nil {
			return fmt.Errorf("not an integer")
		}
		if v < min {
			return fmt.Errorf("must be at least %d", min)
		}
		assign(c, v)
		return nil
	}
}

var overrideFields = []overrideField{
	{"seed", "RNG seed decorrelating runs (uint64)", func(c *Config, s string) error {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return fmt.Errorf("not an unsigned integer")
		}
		c.Seed = v
		return nil
	}},
	{"subarrays-per-module", "subarrays sampled per module in the statistical sweeps",
		intSetter(1, func(c *Config, v int) { c.SubarraysPerModule = v })},
	{"ttf-samples", "order-statistic samples per time-to-first-bitflip point",
		intSetter(1, func(c *Config, v int) { c.TTFSamples = v })},
	{"mixes", "four-core workload mixes for memsim-based experiments",
		intSetter(1, func(c *Config, v int) { c.Mixes = v })},
	{"mlp", "outstanding misses per core in memsim (0 = memsim default)",
		intSetter(1, func(c *Config, v int) { c.MLP = v })},
	{"measure-instr", "per-core measured instruction count in memsim", func(c *Config, s string) error {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return fmt.Errorf("not an integer")
		}
		if v < 1 {
			return fmt.Errorf("must be at least 1")
		}
		c.MeasureInstr = v
		return nil
	}},
	{"cell-rows", "rows per subarray in the cell-explicit experiments (Fig 2, 21)",
		intSetter(8, func(c *Config, v int) { c.CellRows = v })},
	{"cell-cols", "columns in the cell-explicit experiments",
		intSetter(8, func(c *Config, v int) { c.CellCols = v })},
}

// OverrideKeys lists every valid override key with its one-line doc, in
// stable order — the source for `cdlab profiles` and usage messages.
func OverrideKeys() []string {
	out := make([]string, len(overrideFields))
	for i, f := range overrideFields {
		out[i] = f.key + "\t" + f.doc
	}
	return out
}

// ApplyOverrides returns cfg with the given key=value overrides applied.
// Every key must name a known override field and every value must parse and
// validate for it; the first offending entry (in sorted key order, so the
// error is deterministic) fails the whole application and cfg is returned
// unchanged. The resolved Config feeds Config.Digest unchanged, so an
// overridden run caches under its own keys and can never alias the base
// profile's entries.
func ApplyOverrides(cfg Config, overrides map[string]string) (Config, error) {
	if len(overrides) == 0 {
		return cfg, nil
	}
	fields := make(map[string]overrideField, len(overrideFields))
	for _, f := range overrideFields {
		fields[f.key] = f
	}
	keys := make([]string, 0, len(overrides))
	for k := range overrides {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := cfg
	for _, k := range keys {
		f, ok := fields[k]
		if !ok {
			return cfg, fmt.Errorf("experiments: unknown override %q (valid: %s)", k, overrideKeyList())
		}
		if err := f.set(&out, overrides[k]); err != nil {
			return cfg, fmt.Errorf("experiments: override %s=%q: %v", k, overrides[k], err)
		}
	}
	return out, nil
}

// overrideKeyList renders the valid override keys for error messages.
func overrideKeyList() string {
	s := ""
	for i, f := range overrideFields {
		if i > 0 {
			s += ", "
		}
		s += f.key
	}
	return s
}

// ResolveConfig resolves a (profile, overrides) request into the effective
// Config: the named profile's base ("" selects "small") with the overrides
// applied. This is THE config resolution path — the local runner, the HTTP
// service and the remote client all route through it, which is what makes a
// remote run byte-identical to a local run of the same request: identical
// resolution means identical Config, identical Config.Digest, and therefore
// shared shard-cache keys.
func ResolveConfig(profile string, overrides map[string]string) (Config, error) {
	if profile == "" {
		profile = "small"
	}
	p, ok := ProfileByName(profile)
	if !ok {
		return Config{}, fmt.Errorf("experiments: unknown profile %q (see Profiles)", profile)
	}
	return ApplyOverrides(p.Config, overrides)
}
