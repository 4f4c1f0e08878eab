package explore

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
)

// TestCorpusRoundTrip: report bytes → report → identical bytes, and an
// exploration seeded with the corpus state read back from the bytes is
// indistinguishable from one seeded with the original — the property that
// lets corpora travel between campaign generations inside explore reports.
func TestCorpusRoundTrip(t *testing.T) {
	ctx := context.Background()
	rep, err := Explore(ctx, testOptions(exploreSeed))
	if err != nil {
		t.Fatalf("explore: %v", err)
	}
	st := rep.CorpusState()
	if len(st.Entries) == 0 {
		t.Fatal("exploration yielded an empty corpus")
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var read Report
	if err := json.Unmarshal(data, &read); err != nil {
		t.Fatalf("read back: %v", err)
	}
	data2, err := json.Marshal(&read)
	if err != nil {
		t.Fatalf("re-marshal: %v", err)
	}
	if !bytes.Equal(data, data2) {
		t.Fatalf("report round-trip not byte-stable:\n%s\nvs\n%s", data, data2)
	}
	if read.Canonical() != rep.Canonical() {
		t.Fatalf("report read back renders differently:\n%s\nvs\n%s", read.Canonical(), rep.Canonical())
	}
	loaded := read.CorpusState()

	optsA := testOptions(exploreSeed + 1)
	optsA.SeedCorpus = st
	optsB := testOptions(exploreSeed + 1)
	optsB.SeedCorpus = loaded
	a, err := Explore(ctx, optsA)
	if err != nil {
		t.Fatalf("seeded explore: %v", err)
	}
	b, err := Explore(ctx, optsB)
	if err != nil {
		t.Fatalf("seeded explore from loaded corpus: %v", err)
	}
	if ca, cb := a.Canonical(), b.Canonical(); ca != cb {
		t.Fatalf("loaded corpus seeds a different exploration\n--- original ---\n%s\n--- loaded ---\n%s", ca, cb)
	}

	// Seeded entries lead the new corpus, in their serialized order, and
	// their signatures are not re-counted as novel discoveries.
	if len(a.Corpus) < len(st.Entries) {
		t.Fatalf("seeded corpus lost entries: %d < %d", len(a.Corpus), len(st.Entries))
	}
	for i, e := range st.Entries {
		if a.Corpus[i].Signature != e.Signature {
			t.Fatalf("seeded entry %d: signature %s, want %s", i, a.Corpus[i].Signature, e.Signature)
		}
	}
}
