package cliutil

import (
	"testing"

	"weakestfd/internal/model"
)

// The flag-value parsers refuse garbage with an error: whatever the input,
// they return an error or a value, never panic, a seed list never expands
// past maxSeedList, and a crash schedule names no process twice. The seed
// corpora run as plain tests; explore further with
//
//	go test ./internal/cliutil -run '^$' -fuzz FuzzParseSeeds -fuzztime 10s

func FuzzParseSeeds(f *testing.F) {
	for _, s := range []string{
		"", "1", "-5", "1-1000", "1,2,7-9", "-9--7,4", "3-1", "1,,2", "x", "1-", "--",
		"1,9223372036854775806-9223372036854775807",
		"1,-9223372036854775808-9223372036854775807",
		"-9223372036854775808-9223372036854775807",
		"0-16777215", "1,0-16777216",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		seeds, span, err := ParseSeeds(s)
		if err != nil {
			if seeds != nil || span.N != 0 {
				t.Fatalf("ParseSeeds(%q) errored (%v) but returned %d seeds, span %+v", s, err, len(seeds), span)
			}
			return
		}
		if len(seeds) > maxSeedList {
			t.Fatalf("ParseSeeds(%q) expanded to %d seeds, past %d", s, len(seeds), maxSeedList)
		}
		if span.N < 0 || (span.N > 0 && seeds != nil) {
			t.Fatalf("ParseSeeds(%q) = %d seeds and span %+v", s, len(seeds), span)
		}
	})
}

func FuzzParseDelays(f *testing.F) {
	for _, s := range []string{"", "0:200us", "0:200us,1ms:50ms", "1ms", "2ms:1ms", "-1ms:1ms", ":", ",", "1ms:x", "9223372036854775807ns:9223372036854775807ns"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		delays, err := ParseDelays(s)
		if err != nil {
			return
		}
		for _, d := range delays {
			if d.Min < 0 || d.Max < d.Min {
				t.Fatalf("ParseDelays(%q) accepted %+v", s, d)
			}
		}
	})
}

func FuzzParseCrashes(f *testing.F) {
	for _, s := range []string{"", "-", "-;2@300us", "-;2@300us;0@0s,1@2ms", "5@1ms", "1@1ms,1@2ms", "@", "1@", "@1ms", ";;", "0@-1ms", "x@1ms", "1@1ms,,"} {
		f.Add(s, 3)
	}
	f.Fuzz(func(t *testing.T, s string, n int) {
		scheds, err := ParseCrashes(s, n)
		if err != nil {
			return
		}
		for _, sched := range scheds {
			seen := make(map[model.ProcessID]bool, len(sched))
			for _, c := range sched {
				if int(c.P) < 0 || int(c.P) >= n || c.At < 0 {
					t.Fatalf("ParseCrashes(%q, %d) accepted %+v", s, n, c)
				}
				if seen[c.P] {
					t.Fatalf("ParseCrashes(%q, %d) accepted process %d twice in one schedule", s, n, c.P)
				}
				seen[c.P] = true
			}
		}
	})
}
