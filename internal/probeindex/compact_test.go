package probeindex

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"fsjoin/internal/checkpoint"
	"fsjoin/internal/filters"
	"fsjoin/internal/similarity"
	"fsjoin/internal/testutil"
	"fsjoin/internal/tokens"
)

// refRankTable is the reference Ordering phase: the live vocabulary sorted
// by (frequency ascending, string ascending) with a plain comparison sort.
func refRankTable(live map[int32][]string) []string {
	freq := map[string]int{}
	for _, ts := range live {
		for _, s := range ts {
			freq[s]++
		}
	}
	out := make([]string, 0, len(freq))
	for s := range freq {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if freq[a] != freq[b] {
			return freq[a] < freq[b]
		}
		return a < b
	})
	return out
}

// freshBuild indexes the live records from scratch, with token ids handed
// out in an order unrelated to the rank order.
func freshBuild(t *testing.T, live map[int32][]string, opt Options) *Index {
	t.Helper()
	idOf := map[string]tokens.ID{}
	var strOf []string
	var recs []tokens.Record
	for rid, ts := range live {
		ids := make([]tokens.ID, len(ts))
		for i, s := range ts {
			id, ok := idOf[s]
			if !ok {
				id = tokens.ID(len(strOf))
				idOf[s] = id
				strOf = append(strOf, s)
			}
			ids[i] = id
		}
		recs = append(recs, tokens.NewRecord(rid, ids))
	}
	ix, err := Build(&tokens.Collection{Records: recs}, func(id tokens.ID) string { return strOf[id] }, opt)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// checkCompacted asserts that a just-compacted index is exactly what a
// fresh Build over its live records produces — rank table, lexicographic
// order, record CSR, signatures and postings — and that its rank table
// equals the reference sort.
func checkCompacted(t *testing.T, label string, ix *Index, live map[int32][]string, opt Options) {
	t.Helper()
	want := refRankTable(live)
	if !slices.Equal(ix.tokStr, want) {
		t.Fatalf("%s: rank table\n got %v\nwant %v", label, ix.tokStr, want)
	}
	if len(ix.tokRank) != len(want) {
		t.Fatalf("%s: tokRank holds %d tokens, want %d", label, len(ix.tokRank), len(want))
	}
	for r, s := range want {
		if got, ok := ix.tokRank[s]; !ok || got != uint32(r) {
			t.Fatalf("%s: tokRank[%q] = %d, %v; want %d", label, s, got, ok, r)
		}
	}
	lex := make([]uint32, len(want))
	for r := range lex {
		lex[r] = uint32(r)
	}
	sort.Slice(lex, func(i, j int) bool { return want[lex[i]] < want[lex[j]] })
	if !slices.Equal(ix.lex, lex) {
		t.Fatalf("%s: lexicographic order\n got %v\nwant %v", label, ix.lex, lex)
	}

	fresh := freshBuild(t, live, opt)
	for _, c := range []struct {
		name string
		eq   bool
	}{
		{"recoff", slices.Equal(ix.recOff, fresh.recOff)},
		{"rectok", slices.Equal(ix.recTok, fresh.recTok)},
		{"recrid", slices.Equal(ix.recRID, fresh.recRID)},
		{"sigwords", ix.sigWords == fresh.sigWords},
		{"recsig", slices.Equal(ix.recSig, fresh.recSig)},
		{"postoff", slices.Equal(ix.postOff, fresh.postOff)},
		{"postslot", slices.Equal(ix.postSlot, fresh.postSlot)},
		{"postpos", slices.Equal(ix.postPos, fresh.postPos)},
		{"dead", !slices.Contains(ix.dead, true) && len(ix.dead) == len(ix.recRID)},
		{"overlay", len(ix.log) == 0 && len(ix.logSlot) == 0 && ix.baseDead == 0},
		{"live", ix.liveN == len(live)},
	} {
		if !c.eq {
			t.Fatalf("%s: %s differs from a fresh Build over the live records", label, c.name)
		}
	}
}

// TestCompactMatchesFreshBuild drives random insert/delete/compact
// sequences across a Save/Load boundary (even seeds) or a Persist → WAL
// replay boundary (odd seeds). Vocabularies are small so frequencies tie
// heavily, and inserts bring tokens that sort before every corpus token
// ("a…") as well as after ("u…"), so the merge of kept and new tokens is
// exercised at both ends. After every compaction the index must equal a
// fresh Build over its live records.
func TestCompactMatchesFreshBuild(t *testing.T) {
	fns := []similarity.Func{similarity.Jaccard, similarity.Dice, similarity.Cosine}
	for seed := int64(1); seed <= 16; seed++ {
		rng := rand.New(rand.NewSource(seed))
		mode := filters.BitmapOn
		if seed%3 == 0 {
			mode = filters.BitmapOff
		}
		opt := Options{
			Fn:     fns[seed%3],
			Theta:  0.5 + 0.1*float64(seed%4),
			Bitmap: filters.BitmapConfig{Mode: mode},
		}
		c := testutil.RandomCollection(30+rng.Intn(40), 10+rng.Intn(15), 8, seed)
		live := map[int32][]string{}
		for _, r := range c.Records {
			live[r.RID] = names(r.Tokens)
		}
		ix, err := Build(c, tokenName, opt)
		if err != nil {
			t.Fatal(err)
		}
		checkCompacted(t, fmt.Sprintf("seed %d build", seed), ix, live, opt)

		mutate := func() {
			for k := rng.Intn(12); k > 0; k-- {
				var set []string
				for j := rng.Intn(6) + 1; j > 0; j-- {
					switch rng.Intn(4) {
					case 0:
						set = append(set, fmt.Sprintf("a%02d", rng.Intn(8)))
					case 1:
						set = append(set, fmt.Sprintf("u%02d", rng.Intn(8)))
					default:
						set = append(set, tokenName(tokens.ID(rng.Intn(30))))
					}
				}
				rid, err := ix.Insert(set)
				if err != nil {
					t.Fatal(err)
				}
				slices.Sort(set)
				live[rid] = slices.Compact(set)
			}
			rids := make([]int32, 0, len(live))
			for rid := range live {
				rids = append(rids, rid)
			}
			slices.Sort(rids)
			rng.Shuffle(len(rids), func(i, j int) { rids[i], rids[j] = rids[j], rids[i] })
			for _, rid := range rids[:rng.Intn(min(len(rids), 10)+1)] {
				if err := ix.Delete(rid); err != nil {
					t.Fatal(err)
				}
				delete(live, rid)
			}
		}

		for round := 0; round < 6; round++ {
			label := fmt.Sprintf("seed %d round %d", seed, round)
			if round == 2 {
				dir := filepath.Join(t.TempDir(), "ix")
				if seed%2 == 0 {
					mutate()
					if err := ix.Save(dir); err != nil {
						t.Fatal(err)
					}
				} else {
					if err := ix.Persist(dir, DurableOptions{Sync: SyncPolicy{Mode: SyncAlways}}); err != nil {
						t.Fatal(err)
					}
					mutate() // logged to the WAL, replayed by Load
					if err := ix.Close(); err != nil {
						t.Fatal(err)
					}
				}
				if ix, err = Load(dir, opt); err != nil {
					t.Fatal(err)
				}
				if !stateEqual(liveSets(ix), live) {
					t.Fatalf("%s: live records changed across the load", label)
				}
			}
			mutate()
			if err := ix.Compact(); err != nil {
				t.Fatal(err)
			}
			checkCompacted(t, label, ix, live, opt)
			queries := [][]string{{"a00", "a01", tokenName(3)}, {"u07", "zz"}}
			if len(ix.recRID) > 0 {
				queries = append(queries, live[ix.recRID[0]])
			}
			for _, q := range queries {
				assertMatches(t, label, ix.Probe(q), oracleProbe(live, q, opt.Fn, opt.Theta, 0, false))
			}
		}
	}
}

// TestLoadRejectsUnorderedRIDs: compaction concatenates base slots and log
// entries as they stand, so Load must only accept snapshots whose RIDs
// strictly increase across the base and then the log. A validly
// checksummed file breaking that order is an invariant failure.
func TestLoadRejectsUnorderedRIDs(t *testing.T) {
	opt := Options{Fn: similarity.Jaccard, Theta: 0.8, Bitmap: filters.BitmapConfig{Mode: filters.BitmapOff}}
	for _, tc := range []struct {
		name    string
		corrupt func(vals map[string]any)
	}{
		{"base out of order", func(vals map[string]any) {
			rids := vals["recrid"].([]int32)
			rids[0], rids[1] = rids[1], rids[0]
		}},
		{"log below base", func(vals map[string]any) {
			vals["logrid"].([]int32)[0] = 0
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			ix, err := Build(testutil.RandomCollection(20, 15, 8, 5), tokenName, opt)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ix.Insert([]string{"x", "y"}); err != nil {
				t.Fatal(err)
			}
			if err := ix.Save(dir); err != nil {
				t.Fatal(err)
			}
			st, err := checkpoint.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			fp := fingerprint(ix.fn, ix.theta, ix.bitmap)
			snap, status := st.Load(1, persistJob, fp)
			if status != checkpoint.Hit {
				t.Fatalf("reload of a fresh save: %v", status)
			}
			vals := map[string]any{}
			for _, r := range snap.Records {
				vals[r.Key] = r.Value
			}
			tc.corrupt(vals)
			if err := st.Save(snap.Manifest, snap.Records); err != nil {
				t.Fatal(err)
			}
			if _, err := Load(dir, opt); !errors.Is(err, ErrInvariant) {
				t.Fatalf("load error %v does not wrap ErrInvariant", err)
			}
		})
	}
}
