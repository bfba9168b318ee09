package serve

import (
	"errors"
	"reflect"
	"testing"
)

// FuzzVerifyManifest throws arbitrary bytes at the manifest reader. Its
// committed corpus (testdata/fuzz/FuzzVerifyManifest) holds the manifest
// TestManifestBytesPinned writes, that manifest cut in half, and one whose
// header carries a checksum that is not hex. The contract under fuzzing:
//
//   - never panic,
//   - every failure is an error wrapping ErrCorruptManifest,
//   - anything accepted re-encodes to a manifest that verifies to the same
//     specs.
func FuzzVerifyManifest(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		body, err := verifyManifest(data)
		if err != nil {
			if !errors.Is(err, ErrCorruptManifest) {
				t.Fatalf("error does not wrap ErrCorruptManifest: %v", err)
			}
			return
		}
		re, err := encodeManifest(body.Tenants)
		if err != nil {
			t.Fatalf("accepted manifest does not re-encode: %v", err)
		}
		again, err := verifyManifest(re)
		if err != nil {
			t.Fatalf("re-encoded manifest does not verify: %v", err)
		}
		if !reflect.DeepEqual(again.Tenants, body.Tenants) {
			t.Fatalf("round-trip drift:\n  %+v\n  %+v", body.Tenants, again.Tenants)
		}
	})
}
