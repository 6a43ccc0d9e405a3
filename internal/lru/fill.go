package lru

// FillState is the miss-fill protocol shared by the kernel and userspace
// buffer caches and the read-ahead path. A cache entry whose contents
// come from a device read is published to the cache *before* the read,
// marked filling; the creator fills it and then resolves the fill.
//
// No one waits on a fill: the scheduler admits one task at a time and a
// fill resolves inside the operation that started it, so a getter can
// never meet a mid-fill entry — FillErr panics if one does. What the
// protocol carries is the error path: a failed fill is Dropped from the
// cache before FailFill, so a poisoned entry is never reachable, and a
// holder of a stale reference reads the device error instead of zeroed
// contents.
//
// Protocol: the GetOrInsert mk callback calls BeginFill on the new
// entry; the creator then calls exactly one of CompleteFill (contents
// valid) or FailFill (after Dropping the entry from the cache). Hitters
// call FillErr before first use and release their reference if it
// returns an error.
type FillState struct {
	filling bool
	err     error
}

// BeginFill marks the entry filling. Call from the GetOrInsert mk
// callback, before publication.
func (f *FillState) BeginFill() { f.filling = true }

// CompleteFill marks the contents valid.
func (f *FillState) CompleteFill() { f.filling = false }

// FailFill records the fill error. The creator must Drop the entry from
// the cache first, so no later getter can hit the poisoned entry.
func (f *FillState) FailFill(err error) {
	f.filling = false
	f.err = err
}

// Reset returns the state to "never filled" so the owning entry can be
// recycled through a free pool. The entry must be out of every cache and
// its fill resolved.
func (f *FillState) Reset() { *f = FillState{} }

// FillErr reports how the entry's fill resolved: nil after a completed
// fill (or on an entry that never needed one), the fill error after a
// failed one.
func (f *FillState) FillErr() error {
	if f.filling {
		panic("lru: entry observed mid-fill; a fill must resolve within the operation that began it (one runner at a time)")
	}
	return f.err
}
