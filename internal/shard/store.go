package shard

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"

	"repro/internal/storage"
)

// Stores is the persistence side of the sharded plane: N independent
// storage.Store instances, one per shard, at "<path>.shard<i>". Each
// shard keeps its own segment chain, CRC framing, group-commit and
// recovery — PR 3's WAL story survives partitioning because every shard
// file IS a complete single-shard store.
//
// What a single store gets for free and a sharded one must reconstruct is
// the global arrival order: user registration order determines cluster
// labels and the AMI matrix, so Stores stamps every appended record with
// a monotone global sequence number (storage.Record.Seq, omitted from
// JSON for unsharded stores) and All() returns the union of all shards
// re-sorted by it — a bootstrap replay then registers users in exactly
// the order a single store would have.
//
// A cross-shard Append is not atomic: a crash between per-shard appends
// can persist a batch's records on some shards and not others. Each
// surviving record is still a complete, CRC-valid line, per-shard
// Recover() truncates torn tails independently, and the client's
// idempotent retry (collectclient) re-submits the whole batch; the chaos
// suite exercises exactly this seam.
type Stores struct {
	base   string
	stores []*storage.Store

	mu      sync.Mutex
	nextSeq int64
}

// StorePath returns shard i's store path for a base path.
func StorePath(base string, i int) string {
	return fmt.Sprintf("%s.shard%d", base, i)
}

// OpenStores opens (creating if needed) n per-shard stores under base and
// resumes the global sequence counter from the highest persisted Seq. The
// ".shard<i>" suffix never collides with segment naming: sealed segments
// are "<path>.<6 digits>", and "shard0" is not six digits.
func OpenStores(base string, n int, opts storage.Options) (*Stores, error) {
	if n < 1 {
		return nil, fmt.Errorf("shard: OpenStores with %d shards", n)
	}
	ss := &Stores{base: base, nextSeq: 1}
	for i := 0; i < n; i++ {
		st, err := storage.Open(StorePath(base, i), opts)
		if err != nil {
			ss.Close()
			return nil, err
		}
		ss.stores = append(ss.stores, st)
		ss.nextSeq = max(ss.nextSeq, st.MaxSeq()+1)
	}
	return ss, nil
}

// Shards returns the number of shards.
func (ss *Stores) Shards() int { return len(ss.stores) }

// Shard returns shard i's underlying store (recovery, tests, metrics).
func (ss *Stores) Shard(i int) *storage.Store { return ss.stores[i] }

// Append stamps each record with the next global sequence number, routes
// it to its owning shard, and appends per shard. The input slice is not
// mutated (handlers reuse it for the analytics enqueue).
func (ss *Stores) Append(recs ...storage.Record) error {
	if len(recs) == 0 {
		return nil
	}
	stamped := make([]storage.Record, len(recs))
	copy(stamped, recs)
	groups := make([][]storage.Record, len(ss.stores))
	ss.mu.Lock()
	for i := range stamped {
		stamped[i].Seq = ss.nextSeq
		ss.nextSeq++
		sh := Of(stamped[i].UserID, len(ss.stores))
		groups[sh] = append(groups[sh], stamped[i])
	}
	ss.mu.Unlock()
	for sh, g := range groups {
		if len(g) == 0 {
			continue
		}
		if err := ss.stores[sh].Append(g...); err != nil {
			return fmt.Errorf("shard %d: %w", sh, err)
		}
	}
	return nil
}

// All returns every persisted record across all shards, re-sorted into
// global arrival order by Seq (stable, so records sharing a Seq — only
// possible for pre-sharding data — keep shard order). This is the
// bootstrap-replay order: feeding it to an engine registers users exactly
// as the original submission stream did.
func (ss *Stores) All() ([]storage.Record, error) {
	var all []storage.Record
	for _, st := range ss.stores {
		recs, err := st.All()
		if err != nil {
			return nil, err
		}
		all = append(all, recs...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Seq < all[j].Seq })
	return all, nil
}

// WriteTo streams every shard's records shard-by-shard (each shard's
// lines in its own append order) — the export surface. Consumers needing
// global order re-sort by the seq field each line carries.
func (ss *Stores) WriteTo(w io.Writer) (int64, error) {
	var total int64
	for _, st := range ss.stores {
		n, err := st.WriteTo(w)
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// Recover salvages every shard's active file independently (WAL-style
// truncation at the first torn write, see storage.Store.Recover) and
// returns one report per shard, in shard order.
func (ss *Stores) Recover() ([]storage.RecoverReport, error) {
	reports := make([]storage.RecoverReport, len(ss.stores))
	for i, st := range ss.stores {
		rep, err := st.Recover()
		if err != nil {
			return reports, fmt.Errorf("shard %d: %w", i, err)
		}
		reports[i] = rep
	}
	return reports, nil
}

// Stats sums the per-shard stats indexes (storage.Store.Stats). The sum is
// exact, distinct-user counts included, because Of places every record of
// one user on the same shard: no user is counted by two shards.
func (ss *Stores) Stats() storage.Stats {
	sum := storage.Stats{Vectors: map[string]storage.VectorStats{}}
	for _, st := range ss.stores {
		s := st.Stats()
		sum.Records += s.Records
		sum.Users += s.Users
		for name, v := range s.Vectors {
			acc := sum.Vectors[name]
			acc.Records += v.Records
			acc.Users += v.Users
			sum.Vectors[name] = acc
		}
	}
	return sum
}

// Count returns the total persisted record count across shards.
func (ss *Stores) Count() int {
	n := 0
	for _, st := range ss.stores {
		n += st.Count()
	}
	return n
}

// Path returns the base path the per-shard stores derive from.
func (ss *Stores) Path() string { return ss.base }

// Close closes every shard store, returning the first error.
func (ss *Stores) Close() error {
	var errs []error
	for _, st := range ss.stores {
		if st != nil {
			errs = append(errs, st.Close())
		}
	}
	return errors.Join(errs...)
}
