package store

import "testing"

func sampleRecord(section string) Record {
	return Record{
		Section:        section,
		Fingerprint:    Fingerprint{GoMaxProcs: 8, Workers: 4, VariantsHash: VariantsHash([]string{"a", "b"})},
		Winner:         "a",
		WinnerOverhead: 0.125,
		Rounds:         3,
		Policies: []PolicyRecord{
			{Name: "a", TimesSampled: 3, TimesChosen: 3, MeanOverhead: 0.12, LastOverhead: 0.125},
			{Name: "b", TimesSampled: 3, TimesChosen: 0, MeanOverhead: 0.4, LastOverhead: 0.39},
		},
		UpdatedUnix: 1700000000,
	}
}

func TestVariantsHashOrderAndContentSensitive(t *testing.T) {
	ab := VariantsHash([]string{"a", "b"})
	ba := VariantsHash([]string{"b", "a"})
	if ab == ba {
		t.Error("hash ignores order")
	}
	// The separator must prevent boundary aliasing: ["ab"] vs ["a","b"].
	if VariantsHash([]string{"ab"}) == VariantsHash([]string{"a", "b"}) {
		t.Error("hash aliases across name boundaries")
	}
	if ab != VariantsHash([]string{"a", "b"}) {
		t.Error("hash not deterministic")
	}
}

func TestMemStoreRoundTrip(t *testing.T) {
	m := NewMemStore()
	if _, ok, err := m.Load("missing"); ok || err != nil {
		t.Fatalf("empty store: ok=%v err=%v", ok, err)
	}
	rec := sampleRecord("sec")
	if err := m.Save(rec); err != nil {
		t.Fatal(err)
	}
	// Mutating the caller's copy must not reach the store.
	rec.Policies[0].MeanOverhead = 99
	got, ok, err := m.Load("sec")
	if !ok || err != nil {
		t.Fatalf("load: ok=%v err=%v", ok, err)
	}
	if got.Policies[0].MeanOverhead != 0.12 {
		t.Error("store aliases the caller's slice")
	}
	// And mutating the loaded copy must not reach the store either.
	got.Policies[0].MeanOverhead = 77
	again, _, _ := m.Load("sec")
	if again.Policies[0].MeanOverhead != 0.12 {
		t.Error("load aliases the stored slice")
	}
	if err := m.Save(Record{}); err == nil {
		t.Error("nameless record accepted")
	}
}
