package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"math/rand"
	"os"

	"partadvisor/internal/durable"
)

// ErrStopped is returned by training when the advisor's Stop hook fired
// after a completed episode. What a stop means — a graceful shutdown, a
// paused tenant, a simulated crash — is the caller's business.
var ErrStopped = errors.New("core: training stopped by request")

// ErrCorruptCheckpoint marks a checkpoint file that fails integrity
// verification: wrong magic, unknown format version, truncation, a
// SHA-256 footer mismatch, or an undecodable payload. LoadCheckpoint
// wraps every such failure in this sentinel so callers (the recovery
// fallback ladder in internal/serve, the CLI -resume path) can tell a
// torn or bit-flipped file apart from an I/O error and fall back to an
// older generation instead of decoding garbage into a live advisor.
var ErrCorruptCheckpoint = errors.New("core: corrupt checkpoint")

// Checkpoint is the serialized training state. Together with the advisor's
// deterministic construction (same schema, workload, hyperparameters and
// seed) it is sufficient to continue training bit-identically: the agent
// blob carries both networks, the Adam moments and the replay buffer, and
// the RNG draw counts let Restore fast-forward a fresh source to the exact
// stream position.
type Checkpoint struct {
	Seed int64
	// Label identifies the run configuration that wrote the snapshot. Core
	// neither sets nor reads it; a caller that cares stamps it before
	// WriteCheckpoint and checks it before Restore.
	Label string

	Agent []byte

	EpisodesTrained int
	StepsTrained    int
	TrainUpdates    int

	// RNGInt63 and RNGUint64 count the draws taken from the advisor's RNG
	// source at snapshot time.
	RNGInt63  uint64
	RNGUint64 uint64
}

// countingSource wraps the standard library source and counts draws. Go's
// rand.NewSource state advances by exactly one step per Int63 or Uint64
// call, so replaying the recorded counts against a freshly seeded source —
// in any order — reproduces the stream position bit-identically.
type countingSource struct {
	src    rand.Source64
	int63s uint64
	u64s   uint64
}

func newCountingSource(seed int64) *countingSource {
	return &countingSource{src: rand.NewSource(seed).(rand.Source64)}
}

func (c *countingSource) Int63() int64 {
	c.int63s++
	return c.src.Int63()
}

func (c *countingSource) Uint64() uint64 {
	c.u64s++
	return c.src.Uint64()
}

func (c *countingSource) Seed(seed int64) {
	c.src.Seed(seed)
	c.int63s, c.u64s = 0, 0
}

// fastForwardTo advances the source until the draw counters reach the
// given targets. It fails when the source is already past them — that
// means the advisor did work the snapshot doesn't know about, and the
// streams can no longer line up.
func (c *countingSource) fastForwardTo(int63s, u64s uint64) error {
	if c.int63s > int63s || c.u64s > u64s {
		return fmt.Errorf("core: RNG already past snapshot position (%d/%d draws, snapshot at %d/%d) — restore into a freshly built advisor",
			c.int63s, c.u64s, int63s, u64s)
	}
	for c.int63s < int63s {
		c.Int63()
	}
	for c.u64s < u64s {
		c.Uint64()
	}
	return nil
}

// Checkpoint captures the advisor's full training state.
func (a *Advisor) Checkpoint() (*Checkpoint, error) {
	blob, err := a.Agent.SaveState()
	if err != nil {
		return nil, err
	}
	return &Checkpoint{
		Seed:            a.seed,
		Agent:           blob,
		EpisodesTrained: a.EpisodesTrained,
		StepsTrained:    a.StepsTrained,
		TrainUpdates:    a.TrainUpdates,
		RNGInt63:        a.src.int63s,
		RNGUint64:       a.src.u64s,
	}, nil
}

// Restore loads a checkpoint into a freshly built advisor with the same
// configuration and seed. The advisor then simply continues: training
// picks up at the restored agent state and RNG position, and TrainOffline
// trains only the offline episodes the snapshot does not already hold.
func (a *Advisor) Restore(ck *Checkpoint) error {
	if ck.Seed != a.seed {
		return fmt.Errorf("core: checkpoint was trained with seed %d, advisor built with %d", ck.Seed, a.seed)
	}
	if err := a.Agent.RestoreState(ck.Agent); err != nil {
		return err
	}
	if err := a.src.fastForwardTo(ck.RNGInt63, ck.RNGUint64); err != nil {
		return err
	}
	a.EpisodesTrained = ck.EpisodesTrained
	a.StepsTrained = ck.StepsTrained
	a.TrainUpdates = ck.TrainUpdates
	return nil
}

// Checkpoint file framing. A snapshot on disk is
//
//	magic (8 B) | format version (4 B BE) | payload length (8 B BE)
//	| gob payload | SHA-256 over everything before the footer (32 B)
//
// so LoadCheckpoint can verify a file end to end — magic, version,
// declared length, checksum — before a single gob byte is decoded. Any
// torn write (truncation), bit flip or foreign file fails verification
// with ErrCorruptCheckpoint instead of gob-decoding garbage into a live
// advisor.
const (
	ckptMagic       = "PADVCKPT"
	ckptFormat      = 1
	ckptHeaderLen   = 8 + 4 + 8
	ckptFooterLen   = sha256.Size
	ckptMinFileSize = ckptHeaderLen + ckptFooterLen
)

// EncodeCheckpoint serializes ck into the framed on-disk format.
func EncodeCheckpoint(ck *Checkpoint) ([]byte, error) {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(ck); err != nil {
		return nil, fmt.Errorf("core: encode checkpoint: %w", err)
	}
	return frameCheckpoint(payload.Bytes()), nil
}

// frameCheckpoint wraps a gob payload in the header and SHA-256 footer.
func frameCheckpoint(payload []byte) []byte {
	buf := make([]byte, 0, ckptMinFileSize+len(payload))
	buf = append(buf, ckptMagic...)
	buf = binary.BigEndian.AppendUint32(buf, ckptFormat)
	buf = binary.BigEndian.AppendUint64(buf, uint64(len(payload)))
	buf = append(buf, payload...)
	sum := sha256.Sum256(buf)
	return append(buf, sum[:]...)
}

// DecodeCheckpoint verifies the framing and checksum of a snapshot and
// decodes its payload. Every verification failure wraps
// ErrCorruptCheckpoint.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	if len(data) < ckptMinFileSize {
		return nil, fmt.Errorf("%w: %d bytes, need at least %d", ErrCorruptCheckpoint, len(data), ckptMinFileSize)
	}
	if string(data[:8]) != ckptMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorruptCheckpoint, data[:8])
	}
	if v := binary.BigEndian.Uint32(data[8:12]); v != ckptFormat {
		return nil, fmt.Errorf("%w: file format %d, this build reads %d", ErrCorruptCheckpoint, v, ckptFormat)
	}
	payloadLen := binary.BigEndian.Uint64(data[12:20])
	if payloadLen != uint64(len(data)-ckptMinFileSize) {
		return nil, fmt.Errorf("%w: declared payload %d bytes, file holds %d",
			ErrCorruptCheckpoint, payloadLen, len(data)-ckptMinFileSize)
	}
	body := data[:len(data)-ckptFooterLen]
	var footer [ckptFooterLen]byte
	copy(footer[:], data[len(data)-ckptFooterLen:])
	if sha256.Sum256(body) != footer {
		return nil, fmt.Errorf("%w: SHA-256 mismatch", ErrCorruptCheckpoint)
	}
	ck, err := decodePayload(body[ckptHeaderLen:])
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorruptCheckpoint, err)
	}
	return ck, nil
}

// decodePayload gob-decodes a verified payload. The decode is fenced
// with a recover: the checksum makes a malformed stream nearly
// impossible, but a panic escaping into a recovering server would turn
// bounded data loss into a crash loop.
func decodePayload(payload []byte) (ck *Checkpoint, err error) {
	defer func() {
		if r := recover(); r != nil {
			ck, err = nil, fmt.Errorf("decode panic: %v", r)
		}
	}()
	ck = new(Checkpoint)
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(ck); err != nil {
		return nil, err
	}
	return ck, nil
}

// SaveCheckpoint writes the current training state to path (see
// WriteCheckpoint).
func (a *Advisor) SaveCheckpoint(path string) error {
	ck, err := a.Checkpoint()
	if err != nil {
		return err
	}
	return WriteCheckpoint(path, ck)
}

// WriteCheckpoint writes ck to path through durable.Replace: a crash at any
// instant leaves either the old or the new snapshot intact, never a torn
// file.
func WriteCheckpoint(path string, ck *Checkpoint) error {
	data, err := EncodeCheckpoint(ck)
	if err != nil {
		return err
	}
	if err := durable.Replace(durable.OS, path, data); err != nil {
		return fmt.Errorf("core: write checkpoint: %w", err)
	}
	return nil
}

// LoadCheckpoint reads a snapshot written by SaveCheckpoint, verifying
// the magic, format version, declared length and SHA-256 footer before
// decoding. A file that fails any check returns an error wrapping
// ErrCorruptCheckpoint; a missing file returns the bare I/O error so
// callers can distinguish "never written" from "written and damaged".
func LoadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	ck, err := DecodeCheckpoint(data)
	if err != nil {
		return nil, fmt.Errorf("core: checkpoint %s: %w", path, err)
	}
	return ck, nil
}

// Resume loads the snapshot at path into the advisor.
func (a *Advisor) Resume(path string) error {
	ck, err := LoadCheckpoint(path)
	if err != nil {
		return err
	}
	return a.Restore(ck)
}
