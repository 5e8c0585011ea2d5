package memtable

import (
	"context"
	"encoding/json"
)

// getMany reads keys into a fresh map.
func getMany(t *Table, ctx context.Context, keys []string) (map[string]json.RawMessage, error) {
	out := make(map[string]json.RawMessage, len(keys))
	if err := t.GetManyInto(ctx, keys, out); err != nil {
		return nil, err
	}
	return out, nil
}

// getManyVersioned reads keys and their versions into a fresh map.
func getManyVersioned(t *Table, ctx context.Context, keys []string) (map[string]VersionedValue, error) {
	out := make(map[string]VersionedValue, len(keys))
	if err := t.GetManyVersionedInto(ctx, keys, out); err != nil {
		return nil, err
	}
	return out, nil
}

// DirtyCount returns the number of keys awaiting flush.
func (t *Table) DirtyCount() int {
	var n int
	for _, sh := range t.shards {
		sh.mu.Lock()
		n += len(sh.dirty)
		sh.mu.Unlock()
	}
	return n
}

// TombstoneCount returns the number of deletion tombstones held.
func (t *Table) TombstoneCount() int {
	var n int
	for _, sh := range t.shards {
		sh.mu.Lock()
		for _, e := range sh.data {
			if !e.present {
				n++
			}
		}
		sh.mu.Unlock()
	}
	return n
}
