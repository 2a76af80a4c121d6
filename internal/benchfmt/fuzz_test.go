package benchfmt

import (
	"strings"
	"testing"
)

// FuzzParse feeds arbitrary text through the bench-output parser. Parse
// ingests the raw `go test` stream unfiltered, so it must tolerate any
// byte sequence: the only acceptable outcomes are a result slice or an
// error, never a panic, and every returned benchmark must carry the
// invariants the JSON schema promises (non-empty name, non-negative runs).
func FuzzParse(f *testing.F) {
	f.Add("BenchmarkQuantizeInto/1bit-max-8   1000  1234 ns/op  16 B/op  2 allocs/op\n")
	f.Add("pkg: kgedist/internal/grad\nBenchmarkSelect-4 5 2.5 ns/op 100 MB/s\n")
	f.Add("goos: linux\ngoarch: amd64\nPASS\nok  	kgedist	0.5s\n")
	f.Add("BenchmarkX 1\n")                         // too few fields
	f.Add("BenchmarkX -1 2 ns/op\n")                // negative runs
	f.Add("BenchmarkX 9999999999999999999 2 ns/op") // overflow, no newline
	f.Add("BenchmarkX 10 NaN ns/op\nBenchmarkX 10 1e309 ns/op\n")
	f.Add("pkg:\npkg: a\npkg: b\nBenchmarkY 1 1 ns/op extra\n")
	f.Add(strings.Repeat("BenchmarkLong"+strings.Repeat("x", 300), 10))
	f.Add("\x00\xff\xfe BenchmarkBinary 1 1 ns/op\n")
	f.Fuzz(func(t *testing.T, input string) {
		bms, err := Parse(strings.NewReader(input))
		if err != nil {
			return
		}
		for _, b := range bms {
			if b.Name == "" {
				t.Errorf("Parse returned a benchmark with an empty name from %q", input)
			}
			if b.Runs < 0 {
				t.Errorf("Parse returned negative runs %d for %q", b.Runs, b.Name)
			}
		}
	})
}
