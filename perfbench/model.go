package main

import (
	"fmt"
	"slices"
	"sync/atomic"

	"btreeperf/internal/server"
)

// table is the benchmark's model of the server's contents, shared by the
// load connections. Each row has its value (0 = absent, else value+1) and
// a stamp: the completion time of its last mutation shifted left once,
// with the low bit set while a mutation of the row is in flight. A read
// is checked exactly when its rows were settled from before it was sent
// until it was checked; otherwise the read may see either side of the
// mutation, so it is only checked to return a value written to that row.
type table struct {
	rows   int
	val    []atomic.Uint64
	stamp  []atomic.Int64
	sorted []int64 // every universe key, ascending
}

func newTable(rows int) *table {
	t := &table{
		rows:   rows,
		val:    make([]atomic.Uint64, 2*rows),
		stamp:  make([]atomic.Int64, 2*rows),
		sorted: make([]int64, 2*rows),
	}
	for i := range t.sorted {
		t.sorted[i] = keyOf(uint32(i))
	}
	slices.Sort(t.sorted)
	t.reset()
	return t
}

// reset restores the freshly loaded table: rows [0, rows) hold value row.
func (t *table) reset() {
	for i := range t.val {
		v := uint64(0)
		if i < t.rows {
			v = uint64(i) + 1
		}
		t.val[i].Store(v)
		t.stamp[i].Store(0)
	}
}

// begin marks a mutation of row in flight. Only the row's own connection
// mutates it, and never two at once, so a plain load-store suffices.
func (t *table) begin(row uint32) {
	s := &t.stamp[row]
	s.Store(s.Load() | 1)
}

// read returns row's model value and whether it is exact for a read sent
// at time sent (ns).
func (t *table) read(row uint32, sent int64) (val uint64, present, exact bool) {
	s1 := t.stamp[row].Load()
	v := t.val[row].Load()
	s2 := t.stamp[row].Load()
	exact = s1 == s2 && s1&1 == 0 && s1>>1 < sent
	return v - 1, v != 0, exact
}

// finish checks a completed mutation's status against the model and
// applies it. A shed mutation (Busy, Overload) left the row unchanged.
func (t *table) finish(o op, status byte, now int64) error {
	var err error
	present := t.val[o.row].Load() != 0
	switch status {
	case server.StatusOK, server.StatusMiss:
		// put: OK = fresh insert, Miss = replaced; del: OK = removed,
		// Miss = absent.
		want := server.StatusOK
		if present == (o.kind == server.OpPut) {
			want = server.StatusMiss
		}
		if status != want {
			err = fmt.Errorf("op %d row %d: status %s, want %s", o.kind, o.row,
				server.StatusName(status), server.StatusName(want))
		}
		if o.kind == server.OpPut {
			t.val[o.row].Store(o.val + 1)
		} else {
			t.val[o.row].Store(0)
		}
	case server.StatusBusy, server.StatusOverload:
	default:
		err = fmt.Errorf("op %d row %d: status %s", o.kind, o.row, server.StatusName(status))
	}
	t.stamp[o.row].Store(now << 1)
	return err
}

// checkGet checks a get response for row sent at time sent.
func (t *table) checkGet(row uint32, sent int64, resp server.Response) error {
	if resp.Status == server.StatusBusy {
		return nil
	}
	v, present, exact := t.read(row, sent)
	switch {
	case resp.Status == server.StatusMiss && !resp.HasVal:
		if !exact || !present {
			return nil
		}
	case resp.Status == server.StatusOK && resp.HasVal:
		if exact && present && resp.Val == v || !exact && rowOfVal(resp.Val) == row {
			return nil
		}
	}
	return fmt.Errorf("get row %d: status %s val %#x has %v, model %#x present %v exact %v",
		row, server.StatusName(resp.Status), resp.Val, resp.HasVal, v, present, exact)
}

// checkScan checks one scan page of [keyOf(o.row), o.hi): entries must be
// exactly the present rows in ascending key order, up to the limit, and
// a page without a continuation token must leave nothing present in the
// range.
func (t *table) checkScan(o op, limit int, sent int64, resp server.Response) error {
	if resp.Status == server.StatusBusy {
		return nil
	}
	lo := keyOf(o.row)
	if resp.Status != server.StatusOK || !resp.Page || len(resp.Entries) > limit {
		return fmt.Errorf("scan [%d,%d): status %s page %v, %d entries",
			lo, o.hi, server.StatusName(resp.Status), resp.Page, len(resp.Entries))
	}
	pos, _ := slices.BinarySearch(t.sorted, lo)
	// mustBeAbsent checks that the universe key at pos was allowed to be
	// missing from the page.
	mustBeAbsent := func(pos int) error {
		row := uint32(rowOf(t.sorted[pos]))
		if _, present, exact := t.read(row, sent); exact && present {
			return fmt.Errorf("scan [%d,%d): missing key %d (row %d)", lo, o.hi, t.sorted[pos], row)
		}
		return nil
	}
	for _, e := range resp.Entries {
		for pos < len(t.sorted) && t.sorted[pos] < e.Key {
			if err := mustBeAbsent(pos); err != nil {
				return err
			}
			pos++
		}
		if e.Key >= o.hi || pos == len(t.sorted) || t.sorted[pos] != e.Key {
			return fmt.Errorf("scan [%d,%d): key %d not expected at this position", lo, o.hi, e.Key)
		}
		row := uint32(rowOf(e.Key))
		v, present, exact := t.read(row, sent)
		if exact && (!present || e.Val != v) || !exact && rowOfVal(e.Val) != row {
			return fmt.Errorf("scan [%d,%d): key %d val %#x, model %#x present %v exact %v",
				lo, o.hi, e.Key, e.Val, v, present, exact)
		}
		pos++
	}
	if resp.Token == nil {
		for ; pos < len(t.sorted) && t.sorted[pos] < o.hi; pos++ {
			if err := mustBeAbsent(pos); err != nil {
				return err
			}
		}
	}
	return nil
}
