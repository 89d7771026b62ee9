package probeindex

import (
	"fmt"
	"math/rand"
	"testing"

	"fsjoin/internal/dataset"
	"fsjoin/internal/similarity"
)

// benchCorpus is the 4,000-record PubMed-profile corpus (Zipf token
// frequencies, mean 80 tokens) the serving benchmarks index at Jaccard 0.8.
func benchCorpus(b *testing.B) (*Index, [][]string) {
	b.Helper()
	c := dataset.Generate(dataset.PubMed(), 1)
	ix, err := Build(c, tokenName, Options{Fn: similarity.Jaccard, Theta: 0.8})
	if err != nil {
		b.Fatal(err)
	}
	sets := make([][]string, len(c.Records))
	for i, r := range c.Records {
		sets[i] = names(r.Tokens)
	}
	return ix, sets
}

// nearDup copies a set with one token replaced by word.
func nearDup(rng *rand.Rand, set []string, word string) []string {
	out := append([]string(nil), set...)
	if len(out) > 0 {
		out[rng.Intn(len(out))] = word
	}
	return out
}

// BenchmarkCompact times one compaction of the 4,000-record index carrying
// a 256-record overlay: 128 inserted near-duplicates of corpus records,
// each with one never-seen word, and 128 base tombstones. The overlay is
// rebuilt outside the timer, so the corpus keeps its size.
func BenchmarkCompact(b *testing.B) {
	ix, sets := benchCorpus(b)
	rng := rand.New(rand.NewSource(2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for k := 0; k < 128; k++ {
			set := nearDup(rng, sets[rng.Intn(len(sets))], fmt.Sprintf("n%d.%d", i, k))
			if _, err := ix.Insert(set); err != nil {
				b.Fatal(err)
			}
		}
		for k := 0; k < 128; {
			if s := rng.Intn(len(ix.recRID)); !ix.dead[s] {
				if err := ix.Delete(ix.recRID[s]); err != nil {
					b.Fatal(err)
				}
				k++
			}
		}
		b.StartTimer()
		if err := ix.Compact(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProbe times one probe against the 4,000-record index, cycling
// through 1,000 queries: half near-duplicates of corpus records with one
// unknown word, half eight corpus words drawn at random. Canonicalisation
// is part of every probe.
func BenchmarkProbe(b *testing.B) {
	ix, sets := benchCorpus(b)
	rng := rand.New(rand.NewSource(3))
	queries := make([][]string, 1000)
	for i := range queries {
		if i%2 == 0 {
			queries[i] = nearDup(rng, sets[rng.Intn(len(sets))], fmt.Sprintf("q%d", i))
			continue
		}
		for k := 0; k < 8; k++ {
			s := sets[rng.Intn(len(sets))]
			if len(s) > 0 {
				queries[i] = append(queries[i], s[rng.Intn(len(s))])
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var hits int
	for i := 0; i < b.N; i++ {
		hits += len(ix.Probe(queries[i%len(queries)]))
	}
	if b.N >= len(queries) && hits == 0 {
		b.Fatal("no probe matched: the query mix lost its near-duplicates")
	}
}
