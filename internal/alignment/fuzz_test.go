package alignment

import (
	"bytes"
	"fmt"
	"testing"
)

// The seed corpora live in testdata/fuzz/<target>/, so a plain `go test`
// replays them, including the inputs that used to crash the parsers. Fuzz
// one target with:
//
//	go test ./internal/alignment -run '^$' -fuzz '^FuzzReadPhylip$' -fuzztime 10s

// isASCII reports whether every name and sequence byte is ASCII. Only then
// is a parsed alignment guaranteed to re-read identically: the parsers split
// on Unicode whitespace, and concatenating two fields' bytes can form a
// multi-byte space that was not there before.
func isASCII(a *Alignment) bool {
	for i, n := range a.Names {
		for _, b := range append([]byte(n), a.Seqs[i]...) {
			if b >= 0x80 {
				return false
			}
		}
	}
	return true
}

// sameAlignment compares names and sequences row by row.
func sameAlignment(a, b *Alignment) error {
	if a.NumTaxa() != b.NumTaxa() {
		return fmt.Errorf("%d taxa, re-read %d", a.NumTaxa(), b.NumTaxa())
	}
	for i := range a.Names {
		if a.Names[i] != b.Names[i] || !bytes.Equal(a.Seqs[i], b.Seqs[i]) {
			return fmt.Errorf("row %d: %q %q, re-read %q %q", i, a.Names[i], a.Seqs[i], b.Names[i], b.Seqs[i])
		}
	}
	return nil
}

// FuzzReadPhylip checks that ReadPhylip never panics or sizes buffers from
// the header alone, that whatever it accepts agrees with its header, and
// that an accepted ASCII alignment survives a WritePhylip round trip.
func FuzzReadPhylip(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		a, err := ReadPhylip(bytes.NewReader(in))
		if err != nil {
			return
		}
		var ntax, nsites int
		if _, err := fmt.Sscan(string(in), &ntax, &nsites); err != nil {
			t.Fatalf("accepted input without a readable header: %v", err)
		}
		if a.NumTaxa() != ntax || a.NumSites() != nsites {
			t.Fatalf("parsed %d x %d, header says %d x %d", a.NumTaxa(), a.NumSites(), ntax, nsites)
		}
		if !isASCII(a) {
			return
		}
		var buf bytes.Buffer
		if err := WritePhylip(&buf, a); err != nil {
			t.Fatal(err)
		}
		back, err := ReadPhylip(&buf)
		if err != nil {
			t.Fatalf("re-reading written alignment: %v", err)
		}
		if err := sameAlignment(a, back); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzReadFasta checks that ReadFasta never panics and that an accepted
// ASCII alignment survives a FASTA round trip.
func FuzzReadFasta(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		a, err := ReadFasta(bytes.NewReader(in))
		if err != nil {
			return
		}
		if !isASCII(a) {
			return
		}
		var buf bytes.Buffer
		for i, n := range a.Names {
			fmt.Fprintf(&buf, ">%s\n%s\n", n, a.Seqs[i])
		}
		back, err := ReadFasta(&buf)
		if err != nil {
			t.Fatalf("re-reading written alignment: %v", err)
		}
		if err := sameAlignment(a, back); err != nil {
			t.Fatal(err)
		}
	})
}
