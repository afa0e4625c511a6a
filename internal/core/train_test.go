package core

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"testing"
)

// The SHA-256 of each model's Save output after Train at seed 1, Scale
// 0.01, cascade on. These were recorded while the split search still
// sorted with sort.Slice at every node and Train fitted the three models
// one after another, so they pin that faster training fits the same bytes.
const (
	wantModelSHA   = "e43e259d9b8ca62fc8756dea3bc3de6f87ec32c88ced7f54b978e2875dc7919f"
	wantBaseSHA    = "bbcaba53452904db4d20515833aadba3733e91c2ab214f2e060b68b273ad3a0a"
	wantLexicalSHA = "d378a6d6550611e015646d76d277aa4c0637dab1917c432b43bccfeb930e5239"
)

// trainedModelHashes trains a seed-1, Scale-0.01 study's models at the
// given worker count and hashes each model's serialized form.
func trainedModelHashes(t *testing.T, workers int) (model, base, lexical string) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Seed = 1
	cfg.Scale = 0.01
	cfg.Workers = workers
	cfg.Cascade = DefaultCascade()
	f := New(cfg)
	defer f.Close()
	if err := f.Train(); err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	hash := func(save func(io.Writer) error) string {
		h := sha256.New()
		if err := save(h); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return hex.EncodeToString(h.Sum(nil))
	}
	return hash(f.Model.Save), hash(f.BaseModel.Save), hash(f.Lexical.Save)
}

func TestTrainByteIdenticalAcrossWorkers(t *testing.T) {
	for _, workers := range []int{1, 4} {
		model, base, lexical := trainedModelHashes(t, workers)
		for _, c := range []struct{ name, got, want string }{
			{"Model", model, wantModelSHA},
			{"BaseModel", base, wantBaseSHA},
			{"Lexical", lexical, wantLexicalSHA},
		} {
			if c.got != c.want {
				t.Errorf("workers=%d: %s Save SHA-256 = %s, want %s", workers, c.name, c.got, c.want)
			}
		}
	}
}
