package kernel

import "bento/internal/fsapi"

// PagePool reports the mount's page-memory accounting to the tests
// outside the package: how many page structs and private page buffers its
// arenas have supplied, how many of each sit on the free lists, and the
// free buffers themselves.
func (m *Mount) PagePool() (structs, freeStructs, bufs int, freeBufs [][]byte) {
	return m.pageStructs, len(m.freePages), m.pageBufs, m.freeData
}

// PageResident reports whether page idx of inode ino is in the mount's
// page cache.
func (m *Mount) PageResident(ino fsapi.Ino, idx int64) bool {
	vn, ok := m.vnodes[ino]
	if !ok {
		return false
	}
	_, ok = vn.pc.Peek(idx)
	return ok
}
