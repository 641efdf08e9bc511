package datasets

import "testing"

// BenchmarkGenerate produces the three graphs `go run ./benchmark`
// serves (fr-read, yt-read, wk-directed), i.e. the part of setup_s that
// is not the index.
func BenchmarkGenerate(b *testing.B) {
	for _, bc := range []struct {
		name, key string
		scale     float64
		directed  bool
	}{
		{"FR", "FR", 2, false},
		{"YT", "YT", 10, false},
		{"WK-directed", "WK", 10, true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			spec, err := ByKey(bc.key)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if bc.directed {
					spec.GenerateDirected(bc.scale)
				} else {
					spec.Generate(bc.scale)
				}
			}
		})
	}
}
