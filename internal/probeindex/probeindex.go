// Package probeindex implements the persistent probe index: a build-once,
// read-many fragment index answering single-record similarity queries
// without re-running the batch pipeline.
//
// The index stores the corpus in the PR 1 fragment layout — a global
// frequency-ascending token order plus CSR postings over each record's
// probing prefix, with the posting position retained for the PPJoin
// positional filter — and precomputes one hashed bitmap signature per record
// (DESIGN.md §11). A probe canonicalises its token set against the stored
// order, walks only the postings of its own probing prefix, and funnels the
// survivors of the length, positional and bitmap filters into the same
// filters.VerifyOverlap / similarity.Func.AtLeast kernel the batch joins
// use, so a probe result is byte-identical to the full join restricted to
// that record.
//
// Mutations after Build go to a side-log overlay: Insert appends to the log
// (new tokens extend the global order at the rare end, which preserves
// every prefix already indexed), Delete tombstones either a base slot or a
// log entry, and probes take the union view — postings minus tombstones
// plus a linear scan of the live log — under one RWMutex. Compact folds the
// log back into the CSR base and recomputes the token order, sorting only
// the tokens inserted since the last fold (see compactLocked). Persistence
// (Save/Load) lives in persist.go and rides the internal/checkpoint
// atomic-write, SHA-256-verified codec.
package probeindex

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fsjoin/internal/filters"
	"fsjoin/internal/similarity"
	"fsjoin/internal/tokens"
)

// Counter names surfaced through Stats and fsjoin.Server job stats.
const (
	// CtrProbes counts Probe/ProbeRecord calls served.
	CtrProbes = "index.probes"
	// CtrCandidates counts postings-walk and overlay candidates examined
	// (after the seen-dedup, before the length filter).
	CtrCandidates = "index.candidates"
	// CtrHits counts matches returned.
	CtrHits = "index.hits"
	// CtrLogSize gauges the side-log overlay: live log inserts plus base
	// tombstones not yet folded by Compact.
	CtrLogSize = "index.log.size"
	// CtrCompactions counts Compact calls (manual and automatic).
	CtrCompactions = "index.compactions"
	// CtrWALAppends counts acknowledged durable mutations appended to the
	// write-ahead log.
	CtrWALAppends = "wal.appends"
	// CtrWALSyncedBytes counts WAL bytes made durable by an fsync.
	CtrWALSyncedBytes = "wal.synced.bytes"
	// CtrWALReplayed counts WAL frames replayed by Load on top of the
	// snapshot.
	CtrWALReplayed = "wal.replayed"
	// CtrWALTruncated counts torn or invalid WAL tails dropped by
	// truncate-to-last-valid recovery.
	CtrWALTruncated = "wal.truncated.frames"
	// CtrSnapshotBytes gauges the size of the current snapshot generation
	// on disk (0 until the index is persisted).
	CtrSnapshotBytes = "snapshot.bytes"
)

// Options configures an index. The similarity function, threshold and
// bitmap policy are fixed at build time and persisted with the index; a
// probe answers exactly the query "which indexed records are θ-similar to
// this set under Fn".
type Options struct {
	// Fn is the similarity function (Jaccard, Dice or Cosine).
	Fn similarity.Func
	// Theta is the similarity threshold in (0, 1].
	Theta float64
	// Bitmap configures the per-record signature filter (DESIGN.md §11).
	// Auto mode honours FSJOIN_BITMAP / FSJOIN_BITMAP_WIDTH, resolved once
	// at Build/Load.
	Bitmap filters.BitmapConfig
}

func (o Options) validate() error {
	if o.Theta <= 0 || o.Theta > 1 {
		return fmt.Errorf("probeindex: theta %v outside (0, 1]", o.Theta)
	}
	switch o.Fn {
	case similarity.Jaccard, similarity.Dice, similarity.Cosine:
	default:
		return fmt.Errorf("probeindex: unknown similarity function %d", int(o.Fn))
	}
	return o.Bitmap.Validate()
}

// Match is one probe result: an indexed record meeting the threshold.
type Match struct {
	// RID is the matched record's identifier.
	RID int32
	// Common is the exact intersection size.
	Common int32
	// Sim is the exact similarity, computed by the same Func.Sim the batch
	// pipeline publishes.
	Sim float64
}

// Stats is a snapshot of index counters.
type Stats struct {
	// Probes, Candidates and Hits are cumulative since build/load.
	Probes     int64
	Candidates int64
	Hits       int64
	// LogSize is the current overlay size (live inserts + base tombstones).
	LogSize int64
	// Records is the number of live records probes can match.
	Records int64
	// Compactions counts Compact calls since build/load (manual plus
	// automatic); AutoCompactions is the policy-triggered subset.
	Compactions     int64
	AutoCompactions int64
	// Durability counters (all zero for a purely in-memory index):
	// mutations appended to the WAL, WAL bytes fsynced, frames replayed at
	// load, torn tails truncated at load, and the size of the current
	// snapshot generation on disk.
	WALAppends         int64
	WALSyncedBytes     int64
	WALReplayed        int64
	WALTruncatedFrames int64
	SnapshotBytes      int64
	// Generation is the current snapshot generation (0 until persisted).
	Generation int64
}

// logRec is one side-log overlay entry: a record inserted after the last
// build/compact, or its tombstone once deleted.
type logRec struct {
	rid  int32
	toks []uint32 // ranks, sorted ascending, duplicate-free
	sig  filters.Signature
	dead bool
}

// scratch is the per-probe workspace: the candidate-dedup stamps,
// generation-stamped so reuse across probes never needs a clear, and
// canonicalize's buffers for the probe's known ranks and unknown tokens.
type scratch struct {
	seen  []uint32
	gen   uint32
	ranks []uint32
	unk   []string
}

// Index is the probe index. All exported methods are safe for concurrent
// use: probes share a read lock, mutations take the write lock.
type Index struct {
	fn       similarity.Func
	theta    float64
	bitmap   filters.BitmapConfig // resolved once at Build/Load
	sigWords int                  // 0 when the bitmap filter is off

	mu sync.RWMutex

	// Token table: rank = position in the global frequency-ascending order
	// (ties broken by token string). Insert extends it at the frequent end;
	// ranks are stable between compactions.
	tokStr  []string
	tokRank map[string]uint32
	// lex lists ranks [0, len(lex)) in lexicographic token order — the
	// vocabulary of the last Build or compaction — so a compaction sorts
	// only the tokens inserted since. Empty after Load until the first
	// compaction works it out.
	lex []uint32

	// Base records, CSR: record slot s owns recTok[recOff[s]:recOff[s+1]],
	// sorted ranks. dead marks tombstoned slots still present in postings.
	recOff []int
	recTok []uint32
	recRID []int32
	recSig []filters.Signature // nil when sigWords == 0
	dead   []bool
	slotOf map[int32]int

	// Prefix postings, CSR: rank w owns postSlot/postPos[postOff[w]:
	// postOff[w+1]] — the base slots whose probing prefix contains w, with
	// w's position inside each record.
	postOff  []int
	postSlot []int32
	postPos  []int32

	// Side-log overlay.
	log      []logRec
	logSlot  map[int32]int
	logLive  int
	baseDead int

	nextRID int32
	liveN   int

	// Durability state (nil/zero for a purely in-memory index): the
	// directory and snapshot generation the index is bound to, the open
	// WAL accepting acknowledged mutations, and the maintenance policy.
	dir         string
	gen         int
	wal         *wal
	dopt        DurableOptions
	lastCompact time.Time

	probes, candidates, hits, compactions atomic.Int64

	autoCompactions, walAppends, walSynced   atomic.Int64
	walReplayed, walTruncated, snapshotBytes atomic.Int64

	scratchPool sync.Pool
}

// Build constructs an index over a canonical collection. tokenOf maps the
// collection's dictionary ids back to token strings (it must be injective
// over the ids in use); the index keys on strings so probes may carry
// tokens the corpus has never seen.
func Build(c *tokens.Collection, tokenOf func(tokens.ID) string, opt Options) (*Index, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	if c == nil {
		return nil, fmt.Errorf("probeindex: nil collection")
	}
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("probeindex: %w", err)
	}
	ix := newIndex(opt)

	// Global order: frequency ascending, ties by token string — the same
	// rare-first order the batch pipeline computes, made self-contained so
	// the index needs no external order to probe.
	freq := make([]int32, int(c.MaxToken())+1)
	for _, r := range c.Records {
		for _, t := range r.Tokens {
			freq[t]++
		}
	}
	strOf := make([]string, len(freq))
	lex := make([]uint32, 0, len(freq))
	for id, f := range freq {
		if f > 0 {
			strOf[id] = tokenOf(tokens.ID(id))
			lex = append(lex, uint32(id))
		}
	}
	slices.SortFunc(lex, func(a, b uint32) int { return strings.Compare(strOf[a], strOf[b]) })
	for i := 1; i < len(lex); i++ {
		if s := strOf[lex[i]]; s == strOf[lex[i-1]] {
			return nil, fmt.Errorf("probeindex: tokenOf not injective at %q", s)
		}
	}
	order := rankOrder(lex, freq)
	rankOf := make([]uint32, len(freq))
	ix.tokStr = make([]string, len(order))
	ix.tokRank = make(map[string]uint32, len(order))
	for rank, id := range order {
		rankOf[id] = uint32(rank)
		ix.tokStr[rank] = strOf[id]
		ix.tokRank[strOf[id]] = uint32(rank)
	}
	for i, id := range lex {
		lex[i] = rankOf[id]
	}
	ix.lex = lex

	// Re-encode records into ranks, in RID order so the layout — and
	// therefore the persisted bytes — is deterministic.
	byRID := make([]int, len(c.Records))
	total := 0
	for i, r := range c.Records {
		byRID[i] = i
		total += len(r.Tokens)
	}
	slices.SortFunc(byRID, func(a, b int) int { return cmp.Compare(c.Records[a].RID, c.Records[b].RID) })
	recOff := make([]int, 0, len(byRID)+1)
	recTok := make([]uint32, 0, total)
	recRID := make([]int32, 0, len(byRID))
	for _, i := range byRID {
		r := c.Records[i]
		recOff = append(recOff, len(recTok))
		recTok = appendReranked(recTok, r.Tokens, rankOf)
		recRID = append(recRID, r.RID)
		if r.RID >= ix.nextRID {
			ix.nextRID = r.RID + 1
		}
	}
	ix.assemble(append(recOff, len(recTok)), recTok, recRID)
	return ix, nil
}

func newIndex(opt Options) *Index {
	ix := &Index{
		fn:      opt.Fn,
		theta:   opt.Theta,
		bitmap:  opt.Bitmap.ResolveEnv(),
		tokRank: map[string]uint32{},
		slotOf:  map[int32]int{},
		logSlot: map[int32]int{},
	}
	ix.scratchPool.New = func() any { return &scratch{} }
	return ix
}

// rankOrder is the Ordering phase over a vocabulary listed in lexicographic
// order: a stable counting sort of lex by frequency, dropping tokens of
// frequency 0. The result lists the surviving entries of lex by (frequency
// ascending, string ascending) — the global rare-first order — in time
// linear in the vocabulary and the largest frequency.
func rankOrder(lex []uint32, freq []int32) []uint32 {
	var maxF int32
	for _, t := range lex {
		maxF = max(maxF, freq[t])
	}
	start := make([]int, maxF+1)
	for _, t := range lex {
		start[freq[t]]++
	}
	n := 0
	for f := int32(1); f <= maxF; f++ {
		start[f], n = n, n+start[f]
	}
	order := make([]uint32, n)
	for _, t := range lex {
		if f := freq[t]; f > 0 {
			order[start[f]] = t
			start[f]++
		}
	}
	return order
}

// appendReranked appends one record's tokens, mapped through rankOf, to a
// CSR token array and sorts the appended run.
func appendReranked(dst, toks, rankOf []uint32) []uint32 {
	n := len(dst)
	for _, t := range toks {
		dst = append(dst, rankOf[t])
	}
	slices.Sort(dst[n:])
	return dst
}

// reuse returns buf resized to n zeroed elements, keeping its array when it
// is large enough. Only derived structure rebuilt under the write lock
// goes through it, so no reader can still see the old contents.
func reuse[T any](buf []T, n int) []T {
	buf = slices.Grow(buf[:0], n)[:n]
	clear(buf)
	return buf
}

// assemble installs a rank-coded CSR base — records in strictly increasing
// RID order — and rebuilds everything derived from it (slot map,
// tombstones, signatures, postings), leaving the overlay empty.
func (ix *Index) assemble(recOff []int, recTok []uint32, recRID []int32) {
	ix.recOff, ix.recTok, ix.recRID = recOff, recTok, recRID
	n := len(recRID)
	ix.dead = reuse(ix.dead, n)
	clear(ix.slotOf)
	for s, rid := range recRID {
		ix.slotOf[rid] = s
	}

	ix.sigWords = 0
	ix.recSig = ix.recSig[:0]
	if ix.bitmap.Enabled() && n > 0 {
		ix.sigWords = ix.bitmap.Words(float64(len(recTok)) / float64(n))
		ix.recSig = reuse(ix.recSig, n)
		for s := range ix.recSig {
			filters.BuildSignature(&ix.recSig[s], ix.slotToks(s), ix.sigWords)
		}
	}

	ix.rebuildPostings()

	ix.log = nil
	clear(ix.logSlot)
	ix.logLive = 0
	ix.baseDead = 0
	ix.liveN = n
}

// rebuildPostings fills the prefix-postings CSR from the base records: rank
// w lists every base slot whose probing prefix contains w, in slot order,
// with w's position. Indexing the probing (not the shorter indexing)
// prefix keeps the index complete for arbitrary external probes, not only
// self-joins.
func (ix *Index) rebuildPostings() {
	nTok := len(ix.tokStr)
	// off[w] counts, then ends, then (filled back to front) starts rank
	// w's postings; off[nTok] is the total.
	off := reuse(ix.postOff, nTok+1)
	nrec := len(ix.recRID)
	for s := 0; s < nrec; s++ {
		ts := ix.slotToks(s)
		for _, w := range ts[:ix.fn.ProbePrefixLen(ix.theta, len(ts))] {
			off[w]++
		}
	}
	for w := 1; w < nTok; w++ {
		off[w] += off[w-1]
	}
	n := 0
	if nTok > 0 {
		n = off[nTok-1]
	}
	off[nTok] = n
	ix.postSlot = reuse(ix.postSlot, n)
	ix.postPos = reuse(ix.postPos, n)
	for s := nrec - 1; s >= 0; s-- {
		ts := ix.slotToks(s)
		for i := ix.fn.ProbePrefixLen(ix.theta, len(ts)) - 1; i >= 0; i-- {
			k := off[ts[i]] - 1
			off[ts[i]] = k
			ix.postSlot[k] = int32(s)
			ix.postPos[k] = int32(i)
		}
	}
	ix.postOff = off
}

func (ix *Index) slotToks(s int) []uint32 {
	return ix.recTok[ix.recOff[s]:ix.recOff[s+1]]
}

// canonicalize maps a probe's token strings to sorted, duplicate-free known
// ranks plus the count of distinct unknown tokens. Unknown tokens are
// treated as ranked after every known rank: the prefix-filter theorem holds
// under any total order, the stored prefixes are unchanged by appending new
// tokens at the end of the order, and an unknown token can never match an
// indexed one — so scanning only the known ranks inside the probe's prefix
// stays complete, while the probe's full length L = known + unknown feeds
// the same prefix/overlap algebra the batch pipeline uses.
//
// The ranks live in sc and stay valid until sc goes back to the pool.
func (ix *Index) canonicalize(sc *scratch, set []string) (ranks []uint32, total int) {
	ranks, unk := sc.ranks[:0], sc.unk[:0]
	for _, tok := range set {
		if r, ok := ix.tokRank[tok]; ok {
			ranks = append(ranks, r)
		} else {
			unk = append(unk, tok)
		}
	}
	slices.Sort(ranks)
	ranks = slices.Compact(ranks)
	slices.Sort(unk)
	nUnk := len(slices.Compact(unk))
	clear(unk) // the pool must not pin the caller's strings
	sc.ranks, sc.unk = ranks, unk[:0]
	return ranks, len(ranks) + nUnk
}

// Probe returns every live indexed record θ-similar to the given token set,
// sorted by RID. The set may be unsorted and contain duplicates or tokens
// the index has never seen.
func (ix *Index) Probe(set []string) []Match {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	sc := ix.scratchPool.Get().(*scratch)
	defer ix.scratchPool.Put(sc)
	ranks, total := ix.canonicalize(sc, set)
	return ix.probeLocked(sc, ranks, total, 0, false)
}

// ProbeRecord probes with an indexed record's own token set, excluding the
// record itself — the self-join view restricted to rid.
func (ix *Index) ProbeRecord(rid int32) ([]Match, error) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	var ts []uint32
	if s, ok := ix.slotOf[rid]; ok && !ix.dead[s] {
		ts = ix.slotToks(s)
	} else if li, ok := ix.logSlot[rid]; ok && !ix.log[li].dead {
		ts = ix.log[li].toks
	} else {
		return nil, fmt.Errorf("probeindex: record %d not in index", rid)
	}
	sc := ix.scratchPool.Get().(*scratch)
	defer ix.scratchPool.Put(sc)
	return ix.probeLocked(sc, ts, len(ts), rid, true), nil
}

// probeLocked runs the filter chain under a held read lock. ranks is the
// probe's known ranks (sorted, deduped); total its full length including
// unknown tokens; exclude/hasExcl optionally drops one rid (self-probes).
//
// Soundness of pruning at first contact: postings are walked in ascending
// rank order over the probe's prefix, so the first posting that reaches a
// slot corresponds to the pair's globally smallest common token — exactly
// the group RIDPairsPPJoin would discover the pair in — and the positional
// bound is loosest there. A slot rejected at first contact is therefore
// rejected in every group, and the seen-stamp may finalise it.
func (ix *Index) probeLocked(sc *scratch, ranks []uint32, total int, exclude int32, hasExcl bool) []Match {
	ix.probes.Add(1)
	if total == 0 {
		return nil
	}
	var out []Match
	var cand int64

	var psig filters.Signature
	if ix.sigWords > 0 {
		filters.BuildSignature(&psig, ranks, ix.sigWords)
	}

	nBase := len(ix.recRID)
	if len(sc.seen) < nBase {
		sc.seen = make([]uint32, nBase)
		sc.gen = 0
	}
	sc.gen++
	if sc.gen == 0 {
		for i := range sc.seen {
			sc.seen[i] = 0
		}
		sc.gen = 1
	}

	p := ix.fn.ProbePrefixLen(ix.theta, total)
	if p > len(ranks) {
		p = len(ranks) // the tail of the prefix is unknown tokens: no postings
	}
	for i := 0; i < p; i++ {
		w := ranks[i]
		if int(w) >= len(ix.tokStr) || int(w)+1 >= len(ix.postOff) {
			continue // rank added by Insert after the last compact: no base postings
		}
		for k := ix.postOff[w]; k < ix.postOff[w+1]; k++ {
			slot := ix.postSlot[k]
			if sc.seen[slot] == sc.gen {
				continue
			}
			sc.seen[slot] = sc.gen
			if ix.dead[slot] {
				continue
			}
			rid := ix.recRID[slot]
			if hasExcl && rid == exclude {
				continue
			}
			cand++
			ts := ix.slotToks(int(slot))
			lx := len(ts)
			if filters.StrLPrune(ix.fn, ix.theta, total, lx) {
				continue
			}
			required := ix.fn.MinOverlap(ix.theta, total, lx)
			// PPJoin positional filter at the smallest common token: w is
			// probe position i and record position postPos[k]; at most
			// 1 + min(remaining on each side) tokens can still match.
			if bound := 1 + minInt(total-i-1, lx-int(ix.postPos[k])-1); bound < required {
				continue
			}
			if ix.sigWords > 0 &&
				filters.SigPrune(&psig, &ix.recSig[slot], ix.sigWords, len(ranks), lx, required) {
				// psig covers only the known ranks, but unknown probe tokens
				// cannot intersect an indexed set, so the bound on the known
				// part bounds the true overlap; required still reflects the
				// full probe length. Exact, never lossy.
				continue
			}
			c, ok := filters.VerifyOverlap(ranks, ts, required)
			if !ok || !ix.fn.AtLeast(c, total, lx, ix.theta) {
				continue
			}
			out = append(out, Match{RID: rid, Common: int32(c), Sim: ix.fn.Sim(c, total, lx)})
		}
	}

	// Overlay: linear scan of live log entries with the same filter chain
	// minus the positional filter (the log has no postings positions).
	for li := range ix.log {
		e := &ix.log[li]
		if e.dead || len(e.toks) == 0 {
			continue
		}
		if hasExcl && e.rid == exclude {
			continue
		}
		cand++
		lx := len(e.toks)
		if filters.StrLPrune(ix.fn, ix.theta, total, lx) {
			continue
		}
		required := ix.fn.MinOverlap(ix.theta, total, lx)
		if ix.sigWords > 0 &&
			filters.SigPrune(&psig, &e.sig, ix.sigWords, len(ranks), lx, required) {
			continue
		}
		c, ok := filters.VerifyOverlap(ranks, e.toks, required)
		if !ok || !ix.fn.AtLeast(c, total, lx, ix.theta) {
			continue
		}
		out = append(out, Match{RID: e.rid, Common: int32(c), Sim: ix.fn.Sim(c, total, lx)})
	}

	slices.SortFunc(out, func(a, b Match) int { return cmp.Compare(a.RID, b.RID) })
	ix.candidates.Add(cand)
	ix.hits.Add(int64(len(out)))
	return out
}

// Insert adds a record to the side-log overlay and returns its assigned
// RID. Tokens unknown to the index extend the global order at the frequent
// end — a sound extension, because every already-indexed prefix stays a
// prefix under any order completion that only appends new ranks.
//
// On a durable index the mutation is appended to the write-ahead log
// (synced per the configured policy) BEFORE it is applied or acknowledged;
// a WAL failure returns a *WALError and leaves the index unchanged — a
// mutation is never acknowledged without its durable record.
func (ix *Index) Insert(set []string) (int32, error) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	rid := ix.nextRID
	if ix.wal != nil {
		if err := ix.walAppendLocked(encodeInsertFrame(rid, set)); err != nil {
			return 0, err
		}
		kill("wal.append.post")
	}
	ix.applyInsertLocked(rid, set)
	return rid, nil
}

// applyInsertLocked commits one insert to the in-memory overlay under a
// held write lock: rid becomes live, new tokens extend the rank table.
func (ix *Index) applyInsertLocked(rid int32, set []string) {
	ix.nextRID = rid + 1
	ranks := make([]uint32, 0, len(set))
	for _, tok := range set {
		r, ok := ix.tokRank[tok]
		if !ok {
			r = uint32(len(ix.tokStr))
			ix.tokStr = append(ix.tokStr, tok)
			ix.tokRank[tok] = r
		}
		ranks = append(ranks, r)
	}
	slices.Sort(ranks)
	ranks = slices.Compact(ranks)
	e := logRec{rid: rid, toks: ranks}
	if ix.sigWords > 0 {
		filters.BuildSignature(&e.sig, ranks, ix.sigWords)
	}
	ix.logSlot[rid] = len(ix.log)
	ix.log = append(ix.log, e)
	ix.logLive++
	ix.liveN++
}

// Delete removes a record: base slots are tombstoned (their postings decay
// at the next Compact), log entries are tombstoned in place. Durable
// deletes follow the same WAL-before-acknowledge contract as Insert.
func (ix *Index) Delete(rid int32) error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if !ix.liveLocked(rid) {
		return fmt.Errorf("probeindex: record %d not in index", rid)
	}
	if ix.wal != nil {
		if err := ix.walAppendLocked(encodeDeleteFrame(rid)); err != nil {
			return err
		}
		kill("wal.append.post")
	}
	return ix.applyDeleteLocked(rid)
}

// liveLocked reports whether rid is currently probeable.
func (ix *Index) liveLocked(rid int32) bool {
	if s, ok := ix.slotOf[rid]; ok && !ix.dead[s] {
		return true
	}
	li, ok := ix.logSlot[rid]
	return ok && !ix.log[li].dead
}

// applyDeleteLocked commits one delete under a held write lock.
func (ix *Index) applyDeleteLocked(rid int32) error {
	if s, ok := ix.slotOf[rid]; ok && !ix.dead[s] {
		ix.dead[s] = true
		ix.baseDead++
		ix.liveN--
		return nil
	}
	if li, ok := ix.logSlot[rid]; ok && !ix.log[li].dead {
		ix.log[li].dead = true
		delete(ix.logSlot, rid)
		ix.logLive--
		ix.liveN--
		return nil
	}
	return fmt.Errorf("probeindex: record %d not in index", rid)
}

// walAppendLocked appends one frame to the open WAL, folding the sync
// outcome into the durability counters.
func (ix *Index) walAppendLocked(frame []byte) error {
	synced, err := ix.wal.append(frame)
	if err != nil {
		return err
	}
	ix.walAppends.Add(1)
	ix.walSynced.Add(synced)
	return nil
}

// Compact folds the overlay into the CSR base: live log records join the
// base, tombstones vanish, the global token order is recomputed from the
// surviving corpus (frequency ascending, ties by string, dead tokens
// dropped) and postings and signatures are rebuilt. Probe results are
// unchanged; only the layout moves.
//
// On a durable index compaction also checkpoints: a fresh snapshot
// generation is written atomically, a new empty WAL is installed and the
// old generation retired — see checkpointLocked for the crash protocol.
func (ix *Index) Compact() error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.wal != nil {
		return ix.checkpointLocked(true)
	}
	ix.compactLocked()
	return nil
}

// compactLocked is the in-memory fold, shared by Compact and the durable
// checkpoint path. It is linear in the corpus apart from sorting the
// tokens inserted since the last compaction and each record's own ranks:
// the kept lexicographic order, merged with the sorted new tokens, feeds
// the same counting sort by frequency that Build uses, and tokRank is
// updated in place.
func (ix *Index) compactLocked() {
	freq := make([]int32, len(ix.tokStr))
	total := 0
	for s := range ix.recRID {
		if !ix.dead[s] {
			for _, t := range ix.slotToks(s) {
				freq[t]++
			}
			total += ix.recOff[s+1] - ix.recOff[s]
		}
	}
	for li := range ix.log {
		if e := &ix.log[li]; !e.dead {
			for _, t := range e.toks {
				freq[t]++
			}
			total += len(e.toks)
		}
	}

	lex := ix.lexOrder()
	order := rankOrder(lex, freq)
	oldToNew := make([]uint32, len(ix.tokStr))
	newStr := make([]string, len(order))
	for nr, or := range order {
		oldToNew[or] = uint32(nr)
		newStr[nr] = ix.tokStr[or]
		ix.tokRank[newStr[nr]] = uint32(nr)
	}
	w := 0
	for _, or := range lex {
		if freq[or] > 0 {
			lex[w] = oldToNew[or]
			w++
		} else {
			delete(ix.tokRank, ix.tokStr[or])
		}
	}
	ix.lex = lex[:w]
	ix.tokStr = newStr

	// Live records, re-ranked straight into the new CSR. Base slots are in
	// RID order and every log entry was inserted after the last fold with
	// a larger RID than any before it, so the concatenation is in RID
	// order too.
	recOff := make([]int, 0, ix.liveN+1)
	recTok := make([]uint32, 0, total)
	recRID := make([]int32, 0, ix.liveN)
	for s, rid := range ix.recRID {
		if !ix.dead[s] {
			recOff = append(recOff, len(recTok))
			recTok = appendReranked(recTok, ix.slotToks(s), oldToNew)
			recRID = append(recRID, rid)
		}
	}
	for li := range ix.log {
		if e := &ix.log[li]; !e.dead {
			recOff = append(recOff, len(recTok))
			recTok = appendReranked(recTok, e.toks, oldToNew)
			recRID = append(recRID, e.rid)
		}
	}
	ix.assemble(append(recOff, len(recTok)), recTok, recRID)
	ix.compactions.Add(1)
	ix.lastCompact = time.Now()
}

// lexOrder lists every rank in lexicographic token order: the kept order
// of ranks [0, len(lex)) merged with the ranks inserted since, which alone
// need sorting. After Load nothing is kept, so the first compaction sorts
// the whole vocabulary once.
func (ix *Index) lexOrder() []uint32 {
	fresh := make([]uint32, 0, len(ix.tokStr)-len(ix.lex))
	for r := len(ix.lex); r < len(ix.tokStr); r++ {
		fresh = append(fresh, uint32(r))
	}
	slices.SortFunc(fresh, func(a, b uint32) int { return strings.Compare(ix.tokStr[a], ix.tokStr[b]) })
	out := make([]uint32, 0, len(ix.tokStr))
	kept := ix.lex
	for len(kept) > 0 && len(fresh) > 0 {
		if ix.tokStr[kept[0]] < ix.tokStr[fresh[0]] {
			out, kept = append(out, kept[0]), kept[1:]
		} else {
			out, fresh = append(out, fresh[0]), fresh[1:]
		}
	}
	out = append(out, kept...)
	return append(out, fresh...)
}

// Len returns the number of live records.
func (ix *Index) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.liveN
}

// Options returns the build-time configuration (bitmap already resolved).
func (ix *Index) Options() Options {
	return Options{Fn: ix.fn, Theta: ix.theta, Bitmap: ix.bitmap}
}

// Stats snapshots the index counters.
func (ix *Index) Stats() Stats {
	ix.mu.RLock()
	logSize := int64(ix.logLive + ix.baseDead)
	records := int64(ix.liveN)
	gen := int64(ix.gen)
	ix.mu.RUnlock()
	return Stats{
		Probes:             ix.probes.Load(),
		Candidates:         ix.candidates.Load(),
		Hits:               ix.hits.Load(),
		LogSize:            logSize,
		Records:            records,
		Compactions:        ix.compactions.Load(),
		AutoCompactions:    ix.autoCompactions.Load(),
		WALAppends:         ix.walAppends.Load(),
		WALSyncedBytes:     ix.walSynced.Load(),
		WALReplayed:        ix.walReplayed.Load(),
		WALTruncatedFrames: ix.walTruncated.Load(),
		SnapshotBytes:      ix.snapshotBytes.Load(),
		Generation:         gen,
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
