package lang_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/lang"
	"repro/internal/progen"
)

// progenSources returns the first n programs that krallperf's upload
// workload would analyze: progen at its default configuration.
func progenSources(n int) []string {
	srcs := make([]string, n)
	for i := range srcs {
		srcs[i] = progen.Generate(int64(i), progen.DefaultConfig())
	}
	return srcs
}

// BenchmarkCompile times the whole front end (lex, parse, check, lower and
// validate) over the catalog and indirect workloads and over 64 progen
// programs; one op compiles the whole set.
func BenchmarkCompile(b *testing.B) {
	var catalog []string
	for _, w := range append(bench.Workloads(), bench.IndirectWorkloads()...) {
		catalog = append(catalog, w.Source)
	}
	for _, set := range []struct {
		name string
		srcs []string
	}{{"catalog", catalog}, {"progen", progenSources(64)}} {
		b.Run(set.name, func(b *testing.B) {
			n := 0
			for _, src := range set.srcs {
				n += len(src)
			}
			b.SetBytes(int64(n))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, src := range set.srcs {
					if _, err := lang.Compile(src); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkCheck times lang.Check alone; one op checks one progen program.
func BenchmarkCheck(b *testing.B) {
	var files []*lang.File
	for _, src := range progenSources(64) {
		f, err := lang.Parse(src)
		if err != nil {
			b.Fatal(err)
		}
		files = append(files, f)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lang.Check(files[i%len(files)]); err != nil {
			b.Fatal(err)
		}
	}
}
