package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"fsjoin/internal/dataset"
	"fsjoin/internal/similarity"
	"fsjoin/internal/tokens"
)

// Workload names, in the order the benchmark documents them.
const (
	wZipf     = "selfjoin-zipf"
	wStopword = "selfjoin-stopword"
	wRS       = "rsjoin-query"
	wProbe    = "probe-mixed"
)

var workloadNames = []string{wZipf, wStopword, wRS, wProbe}

// sizes scales a workload's inputs. full() is what the benchmark runs; the
// tests use smaller values so they stay fast.
type sizes struct {
	Corpus   int // PubMed-profile records (zipf, rs, probe)
	Stopword int // records of the dense stop-word corpus
	Queries  int // R-side records of rsjoin-query
}

func full() sizes {
	return sizes{Corpus: 4000, Stopword: 1000, Queries: 40}
}

// input is a workload's generated input in text form. The program under test
// receives only these records; everything else the benchmark derives from
// the seed stays on the benchmark's side.
type input struct {
	Name  string
	Fn    similarity.Func
	Theta float64
	R     []tokens.Raw // the collection of a self-join, or R of an R-S join
	S     []tokens.Raw // nil for self-joins
}

// generate builds a workload's input deterministically from the seed.
func generate(name string, seed int64, sz sizes) (*input, error) {
	switch name {
	case wZipf, wProbe:
		return &input{Name: name, Fn: similarity.Jaccard, Theta: 0.8, R: pubmed(seed, sz.Corpus)}, nil
	case wStopword:
		return &input{Name: name, Fn: similarity.Jaccard, Theta: 0.7, R: stopwordCorpus(seed, sz.Stopword)}, nil
	case wRS:
		s := pubmed(seed, sz.Corpus)
		return &input{Name: name, Fn: similarity.Jaccard, Theta: 0.8, R: queryBatch(seed, s, sz.Queries), S: s}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// pubmed renders the PubMed-profile corpus (Zipf token frequencies, mean 80
// tokens) as text, one "t<id>" word per token.
func pubmed(seed int64, n int) []tokens.Raw {
	p := dataset.PubMed()
	p.Records = n
	c := dataset.Generate(p, seed)
	raws := make([]tokens.Raw, len(c.Records))
	for i, rec := range c.Records {
		words := make([]string, len(rec.Tokens))
		for j, t := range rec.Tokens {
			words[j] = "t" + strconv.Itoa(int(t))
		}
		raws[i] = tokens.Raw{RID: rec.RID, Text: strings.Join(words, " ")}
	}
	return raws
}

// stopwordCorpus is the adversarial dense corpus: every record holds the same
// four stop words plus four content words, and half the records are
// near-duplicates of an earlier one with one content word replaced
// (Jaccard 7/9 ≥ 0.7). Every pair shares the stop words, so no fragment-local
// filter can prune it and partial emission grows with n².
func stopwordCorpus(seed int64, n int) []tokens.Raw {
	const (
		stop    = 4
		content = 4
		vocab   = 5000
	)
	rng := rand.New(rand.NewSource(seed))
	sets := make([][]int, n)
	for i := range sets {
		if i > 0 && rng.Float64() < 0.5 {
			base := sets[rng.Intn(i)]
			set := append([]int(nil), base...)
			set[rng.Intn(content)] = freshWord(rng, set, vocab)
			sets[i] = set
			continue
		}
		set := make([]int, 0, content)
		for len(set) < content {
			set = append(set, freshWord(rng, set, vocab))
		}
		sets[i] = set
	}
	raws := make([]tokens.Raw, n)
	for i, set := range sets {
		words := make([]string, 0, stop+content)
		for s := 0; s < stop; s++ {
			words = append(words, "sw"+strconv.Itoa(s))
		}
		for _, w := range set {
			words = append(words, "c"+strconv.Itoa(w))
		}
		raws[i] = tokens.Raw{RID: int32(i), Text: strings.Join(words, " ")}
	}
	return raws
}

// freshWord draws a content word not already in set.
func freshWord(rng *rand.Rand, set []int, vocab int) int {
	for {
		w := rng.Intn(vocab)
		dup := false
		for _, x := range set {
			dup = dup || x == w
		}
		if !dup {
			return w
		}
	}
}

// queryBatch draws the R side of rsjoin-query: half the queries are
// near-duplicates of random S records (so the join has answers), the other
// half are S words drawn at random into records of an S record's length.
func queryBatch(seed int64, s []tokens.Raw, n int) []tokens.Raw {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	corpus := make([][]string, len(s))
	for i, raw := range s {
		corpus[i] = strings.Fields(raw.Text)
	}
	out := make([]tokens.Raw, n)
	for i := range out {
		noise := 0.05
		if i%2 == 1 {
			noise = 1
		}
		words := mutateWords(rng, corpus[rng.Intn(len(corpus))], corpus, noise)
		out[i] = tokens.Raw{RID: int32(i), Text: strings.Join(words, " ")}
	}
	return out
}

// mutateWords replaces each word with probability noise by a word drawn
// from a random record of corpus, keeping the corpus' word frequencies.
func mutateWords(rng *rand.Rand, base []string, corpus [][]string, noise float64) []string {
	out := make([]string, len(base))
	for i, w := range base {
		if rng.Float64() < noise {
			donor := corpus[rng.Intn(len(corpus))]
			w = donor[rng.Intn(len(donor))]
		}
		out[i] = w
	}
	return out
}
