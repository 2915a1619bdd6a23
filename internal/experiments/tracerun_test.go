package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestTraceRunPinned pins the -trace entry point. The traced run is on the
// Sim, so its Chrome export is a byte-for-byte function of the engine, the
// cost model and the seed: AdaptiveTC on n-queens(8), 4 workers, seed 1
// (what `adaptivetc-bench -trace run.json -threads 4` runs). The digest was
// recorded before trace events on the wall clock stopped reading the clock;
// it moves only with a change meant to move the Sim.
func TestTraceRunPinned(t *testing.T) {
	cfg := Config{MaxThreads: 4, Seed: 1}
	t.Run("export", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "run.json")
		if err := TraceRun(cfg, path); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !json.Valid(b) {
			t.Fatalf("%s is not valid JSON", path)
		}
		const wantBytes = 17450
		const wantSHA = "3b7eaa444757325dac487f26404d1fdd018ab85892df1a435398406509c18975"
		sum := sha256.Sum256(b)
		if got := hex.EncodeToString(sum[:]); len(b) != wantBytes || got != wantSHA {
			t.Errorf("trace export is %d bytes, sha256 %s; want %d bytes, sha256 %s: the Sim moved",
				len(b), got, wantBytes, wantSHA)
		}
	})
	t.Run("injected violation", func(t *testing.T) {
		cfg := cfg
		cfg.InjectTraceViolation = true
		path := filepath.Join(t.TempDir(), "bad.json")
		if err := TraceRun(cfg, path); err == nil {
			t.Fatal("TraceRun accepted a trace with an injected invariant violation")
		}
		if _, err := os.Stat(path); err == nil {
			t.Errorf("TraceRun wrote %s although the invariant check failed", path)
		}
	})
}
