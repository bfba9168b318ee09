package serve

import (
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"partadvisor/internal/datagen"
)

// TestREADMEServiceBounds checks every cap README.md documents for tenant
// specs and batch bodies against the constant the service enforces, so the
// two cannot drift apart.
func TestREADMEServiceBounds(t *testing.T) {
	raw, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	text := strings.Join(strings.Fields(string(raw)), " ")
	const num = `(\d[\d ]*\d|\d)` // digit groups may be separated by spaces
	for _, c := range []struct {
		before, after string
		want          int64
	}{
		{"`offline_episodes` (≤ ", "", MaxOfflineEpisodes},
		{"`online_episodes` (≤ ", "", MaxOnlineEpisodes},
		{"`weight` (≤ ", "", MaxTenantWeight},
		{"`scale` (≤ ", "", datagen.MaxScale},
		{"`advise_every_ms` (≤ ", "", MaxAdviseEveryMS},
		{"at most ", " positions", maxBatchPositions},
		{"`deadline_ms` lies in [0, ", "]", MaxDeadlineMS},
		{"body is at most ", " MiB", maxBody >> 20},
	} {
		doc := c.before + "N" + c.after
		m := regexp.MustCompile(regexp.QuoteMeta(c.before) + num + regexp.QuoteMeta(c.after)).FindStringSubmatch(text)
		if m == nil {
			t.Errorf("README.md no longer documents %q", doc)
			continue
		}
		got, err := strconv.ParseInt(strings.ReplaceAll(m[1], " ", ""), 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("README.md documents %q with N = %d, the service enforces %d", doc, got, c.want)
		}
	}
	if maxBody%(1<<20) != 0 {
		t.Errorf("the body cap %d is not a whole number of MiB as README.md states", maxBody)
	}
}
