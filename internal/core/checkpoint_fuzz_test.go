package core

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// fuzzSeedCheckpoint is a small but structurally complete checkpoint:
// label, non-empty agent blob, training counters and RNG counters, so
// mutations hit every section of the framed file.
func fuzzSeedCheckpoint() *Checkpoint {
	return &Checkpoint{
		Seed:            7,
		Label:           "fuzz micro disk",
		Agent:           []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10},
		EpisodesTrained: 12,
		StepsTrained:    240,
		TrainUpdates:    60,
		RNGInt63:        1234,
		RNGUint64:       99,
	}
}

// FuzzLoadCheckpoint throws arbitrary bytes — seeded with a valid
// snapshot plus truncations and bit flips of it — at the checkpoint
// decoder. The contract under fuzzing:
//
//   - never panic (the gob decode is checksum-guarded and recover-fenced),
//   - every failure is an error wrapping ErrCorruptCheckpoint,
//   - anything accepted re-encodes and re-decodes to the same training
//     position (no silently half-decoded state).
func FuzzLoadCheckpoint(f *testing.F) {
	valid, err := EncodeCheckpoint(fuzzSeedCheckpoint())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-1])
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:ckptHeaderLen])
	f.Add([]byte{})
	f.Add([]byte("not a checkpoint"))
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := DecodeCheckpoint(data)
		if err != nil {
			if !errors.Is(err, ErrCorruptCheckpoint) {
				t.Fatalf("decode error does not wrap ErrCorruptCheckpoint: %v", err)
			}
			return
		}
		re, err := EncodeCheckpoint(ck)
		if err != nil {
			t.Fatalf("accepted checkpoint does not re-encode: %v", err)
		}
		ck2, err := DecodeCheckpoint(re)
		if err != nil {
			t.Fatalf("re-encoded checkpoint does not decode: %v", err)
		}
		if ck2.Seed != ck.Seed || ck2.EpisodesTrained != ck.EpisodesTrained ||
			ck2.StepsTrained != ck.StepsTrained || ck2.RNGInt63 != ck.RNGInt63 ||
			ck2.RNGUint64 != ck.RNGUint64 {
			t.Fatalf("round-trip drift: %+v vs %+v", ck, ck2)
		}
	})
}

// TestLoadCheckpointCorruptionMatrix drives LoadCheckpoint over a grid
// of deterministic damage — truncations at structural boundaries and
// seeded single-bit flips across the whole file — and requires every
// damaged variant to fail with ErrCorruptCheckpoint while the pristine
// file keeps loading.
func TestLoadCheckpointCorruptionMatrix(t *testing.T) {
	dir := t.TempDir()
	valid, err := EncodeCheckpoint(fuzzSeedCheckpoint())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "gen.ckpt")
	write := func(data []byte) {
		t.Helper()
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	write(valid)
	ck, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatalf("pristine file failed to load: %v", err)
	}
	if ck.EpisodesTrained != 12 || ck.RNGInt63 != 1234 {
		t.Fatalf("pristine decode drift: %+v", ck)
	}

	truncations := []int{0, 1, ckptHeaderLen - 1, ckptHeaderLen,
		len(valid) / 4, len(valid) / 2, len(valid) - ckptFooterLen, len(valid) - 1}
	for _, n := range truncations {
		write(valid[:n])
		if _, err := LoadCheckpoint(path); !errors.Is(err, ErrCorruptCheckpoint) {
			t.Fatalf("truncation to %d bytes: want ErrCorruptCheckpoint, got %v", n, err)
		}
	}

	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 64; i++ {
		pos := rng.Intn(len(valid))
		bit := byte(1) << rng.Intn(8)
		mut := append([]byte(nil), valid...)
		mut[pos] ^= bit
		write(mut)
		if _, err := LoadCheckpoint(path); !errors.Is(err, ErrCorruptCheckpoint) {
			t.Fatalf("bit flip at byte %d mask %#x: want ErrCorruptCheckpoint, got %v", pos, bit, err)
		}
	}

	// Appended garbage changes the length/checksum relation and must fail
	// too — a partially overwritten file is as corrupt as a truncated one.
	write(append(append([]byte(nil), valid...), 0xAA, 0xBB))
	if _, err := LoadCheckpoint(path); !errors.Is(err, ErrCorruptCheckpoint) {
		t.Fatalf("appended garbage: want ErrCorruptCheckpoint, got %v", err)
	}

	// A missing file is an I/O error, NOT corruption: recovery tells
	// "never written" apart from "written and damaged".
	os.Remove(path)
	if _, err := LoadCheckpoint(path); err == nil || errors.Is(err, ErrCorruptCheckpoint) {
		t.Fatalf("missing file: want bare I/O error, got %v", err)
	}
}
