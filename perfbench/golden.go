package main

// Output gate. Every operation's simulated output is reduced to a SHA-256
// digest of its JSON encoding. At the default seed and full scale the
// digest must equal the one recorded in golden.json; on any other seed, or
// in quick mode, only the invariants hold (no error, a clean audit, every
// failed pLock escalated, at least the study volume written).

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
)

// goldenFile is the on-disk form of golden.json.
type goldenFile struct {
	Seed    int64             `json:"seed"`
	Digests map[string]string `json:"digests"`
}

// checker compares (or, when recording, collects) output digests.
type checker struct {
	// want is nil when the goldens do not apply.
	want   map[string]string
	record map[string]string
}

//go:embed golden.json
var goldenJSON []byte

// goldenPath is where -record-golden writes, relative to the repository
// root.
const goldenPath = "perfbench/golden.json"

// newChecker loads the goldens for a run. They apply only at the seed
// they were recorded at and at full scale.
func newChecker(seed int64, quick, record bool) (*checker, error) {
	if record {
		return &checker{record: map[string]string{}}, nil
	}
	if quick || seed != defaultSeed {
		return &checker{}, nil
	}
	var g goldenFile
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("goldens: %w", err)
	}
	if g.Seed != seed {
		return &checker{}, nil
	}
	return &checker{want: g.Digests}, nil
}

func digest(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// check compares v's digest with the golden recorded under key.
func (c *checker) check(key string, v any) error {
	if c.want == nil && c.record == nil {
		return nil
	}
	d, err := digest(v)
	if err != nil {
		return fmt.Errorf("%s: digest: %w", key, err)
	}
	if c.record != nil {
		c.record[key] = d
		return nil
	}
	want, ok := c.want[key]
	if !ok {
		return fmt.Errorf("%s: no golden digest recorded", key)
	}
	if d != want {
		return fmt.Errorf("%s: output digest %s differs from golden %s", key, d[:12], want[:12])
	}
	return nil
}

// writeGoldens merges the recorded digests into the golden file at path.
func (c *checker) writeGoldens(path string, seed int64) error {
	g := goldenFile{Seed: seed, Digests: map[string]string{}}
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &g); err != nil {
			return fmt.Errorf("goldens: %s: %w", path, err)
		}
		if g.Seed != seed {
			return fmt.Errorf("goldens: %s holds seed %d, not %d", path, g.Seed, seed)
		}
	}
	for k, v := range c.record {
		g.Digests[k] = v
	}
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
