// Package composefs implements the paper's §3.4/§4 "composable file
// systems" direction: a stackable overlay that layers one Bento file
// system's namespace on top of another — the OverlayFS-for-Docker use
// case from the paper's motivation — *without* routing through top-level
// VFS functions. The layers compose at the Bento file-operations API, so
// a stack of N file systems costs N direct calls, not N system-call-sized
// VFS traversals (the §3.4.1 concern).
//
// Semantics (simplified overlay): lookups hit the upper layer first and
// fall through to the lower; all mutations go to the upper layer
// (copy-up on write); deletions of lower-layer files leave whiteouts.
package composefs

import (
	"fmt"
	"strings"

	"bento/internal/bentoks"
	"bento/internal/core"
	"bento/internal/fsapi"
	"bento/internal/kernel"
)

// whiteoutPrefix marks deleted lower-layer names in the upper layer.
const whiteoutPrefix = ".wh."

// Overlay is a Bento file system composed of an upper (writable) and a
// lower (read-only) Bento file system. Inode numbers are virtualized:
// the overlay hands out its own and maps them to (layer, inode).
type Overlay struct {
	upper core.FileSystem
	lower core.FileSystem

	byReal map[realIno]fsapi.Ino
	byVirt map[fsapi.Ino]realIno
	next   fsapi.Ino
}

type realIno struct {
	upper bool
	ino   fsapi.Ino
}

// New composes upper over lower. Both must already be initialized (they
// have their own devices); Init of the overlay itself takes no storage.
func New(upper, lower core.FileSystem) *Overlay {
	ov := &Overlay{
		upper:  upper,
		lower:  lower,
		byReal: make(map[realIno]fsapi.Ino),
		byVirt: make(map[fsapi.Ino]realIno),
		next:   fsapi.RootIno + 1,
	}
	// The overlay root maps to both layers' roots; use the upper's.
	ov.byReal[realIno{true, fsapi.RootIno}] = fsapi.RootIno
	ov.byVirt[fsapi.RootIno] = realIno{true, fsapi.RootIno}
	return ov
}

// virt returns (minting if needed) the virtual ino for a layer inode.
func (ov *Overlay) virt(layerUpper bool, ino fsapi.Ino) fsapi.Ino {
	key := realIno{layerUpper, ino}
	if v, ok := ov.byReal[key]; ok {
		return v
	}
	v := ov.next
	ov.next++
	ov.byReal[key] = v
	ov.byVirt[v] = key
	return v
}

// real resolves a virtual ino.
func (ov *Overlay) real(v fsapi.Ino) (realIno, error) {
	r, ok := ov.byVirt[v]
	if !ok {
		return realIno{}, fsapi.ErrStale
	}
	return r, nil
}

// layer returns the file system backing a real inode.
func (ov *Overlay) layer(r realIno) core.FileSystem {
	if r.upper {
		return ov.upper
	}
	return ov.lower
}

func (ov *Overlay) mapStat(layerUpper bool, st fsapi.Stat) fsapi.Stat {
	st.Ino = ov.virt(layerUpper, st.Ino)
	return st
}

// BentoName implements core.FileSystem.
func (ov *Overlay) BentoName() string {
	return fmt.Sprintf("overlay(%s/%s)", ov.upper.BentoName(), ov.lower.BentoName())
}

// Init implements core.FileSystem. The overlay has no storage of its own.
func (ov *Overlay) Init(t *kernel.Task, disk bentoks.Disk) error { return nil }

// Destroy implements core.FileSystem.
func (ov *Overlay) Destroy(t *kernel.Task) error {
	if err := ov.upper.Destroy(t); err != nil {
		return err
	}
	return ov.lower.Destroy(t)
}

// StatFS implements core.FileSystem (the writable layer's numbers).
func (ov *Overlay) StatFS(t *kernel.Task) (fsapi.FSStat, error) { return ov.upper.StatFS(t) }

// lookupLayers resolves name under the virtual directory in both layers.
func (ov *Overlay) lookupLayers(t *kernel.Task, parent fsapi.Ino, name string) (fsapi.Stat, bool, error) {
	r, err := ov.real(parent)
	if err != nil {
		return fsapi.Stat{}, false, err
	}
	if r.upper {
		// Whiteout check first.
		if _, err := ov.upper.Lookup(t, r.ino, whiteoutPrefix+name); err == nil {
			return fsapi.Stat{}, false, fsapi.ErrNotExist
		}
		if st, err := ov.upper.Lookup(t, r.ino, name); err == nil {
			return st, true, nil
		}
		// Fall through to the lower layer at the same path only from the
		// root (simplified model: directories are merged at the root).
		if r.ino == fsapi.RootIno {
			if st, err := ov.lower.Lookup(t, fsapi.RootIno, name); err == nil {
				return st, false, nil
			}
		}
		return fsapi.Stat{}, false, fsapi.ErrNotExist
	}
	st, err := ov.lower.Lookup(t, r.ino, name)
	if err != nil {
		return fsapi.Stat{}, false, err
	}
	return st, false, nil
}

// Lookup implements core.FileSystem.
func (ov *Overlay) Lookup(t *kernel.Task, parent fsapi.Ino, name string) (fsapi.Stat, error) {
	st, upper, err := ov.lookupLayers(t, parent, name)
	if err != nil {
		return fsapi.Stat{}, err
	}
	return ov.mapStat(upper, st), nil
}

// GetAttr implements core.FileSystem.
func (ov *Overlay) GetAttr(t *kernel.Task, ino fsapi.Ino) (fsapi.Stat, error) {
	r, err := ov.real(ino)
	if err != nil {
		return fsapi.Stat{}, err
	}
	st, err := ov.layer(r).GetAttr(t, r.ino)
	if err != nil {
		return fsapi.Stat{}, err
	}
	return ov.mapStat(r.upper, st), nil
}

// copyUp clones a lower-layer file into the upper layer and remaps its
// virtual inode, preserving the caller-visible identity.
func (ov *Overlay) copyUp(t *kernel.Task, v fsapi.Ino, r realIno) (realIno, error) {
	if r.upper {
		return r, nil
	}
	// Find its name in the lower root (simplified: flat namespaces are
	// copied up at root level).
	ents, err := ov.lower.ReadDir(t, fsapi.RootIno)
	if err != nil {
		return r, err
	}
	var name string
	for _, e := range ents {
		if e.Ino == r.ino {
			name = e.Name
			break
		}
	}
	if name == "" {
		return r, fsapi.ErrStale
	}
	st, err := ov.lower.GetAttr(t, r.ino)
	if err != nil {
		return r, err
	}
	up, err := ov.upper.Create(t, fsapi.RootIno, name)
	if err != nil {
		return r, err
	}
	// Copy contents.
	buf := make([]byte, 64<<10)
	var off int64
	for off < st.Size {
		n, err := ov.lower.Read(t, r.ino, off, buf)
		if err != nil {
			return r, err
		}
		if n == 0 {
			break
		}
		if _, err := ov.upper.Write(t, up.Ino, off, buf[:n]); err != nil {
			return r, err
		}
		off += int64(n)
	}
	// Remap the virtual inode to the new upper file.
	nr := realIno{true, up.Ino}
	delete(ov.byReal, r)
	ov.byReal[nr] = v
	ov.byVirt[v] = nr
	return nr, nil
}

// SetAttr implements core.FileSystem (copy-up then truncate).
func (ov *Overlay) SetAttr(t *kernel.Task, ino fsapi.Ino, size int64) error {
	r, err := ov.real(ino)
	if err != nil {
		return err
	}
	r, err = ov.copyUp(t, ino, r)
	if err != nil {
		return err
	}
	return ov.upper.SetAttr(t, r.ino, size)
}

// Create implements core.FileSystem (upper layer only).
func (ov *Overlay) Create(t *kernel.Task, parent fsapi.Ino, name string) (fsapi.Stat, error) {
	r, err := ov.real(parent)
	if err != nil {
		return fsapi.Stat{}, err
	}
	if !r.upper {
		return fsapi.Stat{}, fsapi.ErrReadOnly
	}
	// Remove a stale whiteout if present.
	_ = ov.upper.Unlink(t, r.ino, whiteoutPrefix+name)
	st, err := ov.upper.Create(t, r.ino, name)
	if err != nil {
		return fsapi.Stat{}, err
	}
	return ov.mapStat(true, st), nil
}

// Mkdir implements core.FileSystem.
func (ov *Overlay) Mkdir(t *kernel.Task, parent fsapi.Ino, name string) (fsapi.Stat, error) {
	r, err := ov.real(parent)
	if err != nil {
		return fsapi.Stat{}, err
	}
	if !r.upper {
		return fsapi.Stat{}, fsapi.ErrReadOnly
	}
	st, err := ov.upper.Mkdir(t, r.ino, name)
	if err != nil {
		return fsapi.Stat{}, err
	}
	return ov.mapStat(true, st), nil
}

// Unlink implements core.FileSystem: upper files unlink directly; lower
// files get a whiteout.
func (ov *Overlay) Unlink(t *kernel.Task, parent fsapi.Ino, name string) error {
	r, err := ov.real(parent)
	if err != nil {
		return err
	}
	if !r.upper {
		return fsapi.ErrReadOnly
	}
	_, upper, err := ov.lookupLayers(t, parent, name)
	if err != nil {
		return err
	}
	if upper {
		return ov.upper.Unlink(t, r.ino, name)
	}
	// Lower-layer file: whiteout.
	if _, err := ov.upper.Create(t, r.ino, whiteoutPrefix+name); err != nil {
		return err
	}
	return nil
}

// Rmdir implements core.FileSystem.
func (ov *Overlay) Rmdir(t *kernel.Task, parent fsapi.Ino, name string) error {
	r, err := ov.real(parent)
	if err != nil {
		return err
	}
	if !r.upper {
		return fsapi.ErrReadOnly
	}
	return ov.upper.Rmdir(t, r.ino, name)
}

// Rename implements core.FileSystem (upper layer only; lower files are
// copied up first).
func (ov *Overlay) Rename(t *kernel.Task, op fsapi.Ino, on string, np fsapi.Ino, nn string) error {
	ro, err := ov.real(op)
	if err != nil {
		return err
	}
	rn, err := ov.real(np)
	if err != nil {
		return err
	}
	if !ro.upper || !rn.upper {
		return fsapi.ErrReadOnly
	}
	st, upper, err := ov.lookupLayers(t, op, on)
	if err != nil {
		return err
	}
	if !upper {
		v := ov.virt(false, st.Ino)
		if _, err := ov.copyUp(t, v, realIno{false, st.Ino}); err != nil {
			return err
		}
		if err := ov.Unlink(t, op, on); err != nil && !strings.Contains(err.Error(), "exist") {
			return err
		}
	}
	return ov.upper.Rename(t, ro.ino, on, rn.ino, nn)
}

// Link implements core.FileSystem.
func (ov *Overlay) Link(t *kernel.Task, ino fsapi.Ino, parent fsapi.Ino, name string) (fsapi.Stat, error) {
	r, err := ov.real(ino)
	if err != nil {
		return fsapi.Stat{}, err
	}
	rp, err := ov.real(parent)
	if err != nil {
		return fsapi.Stat{}, err
	}
	if !rp.upper {
		return fsapi.Stat{}, fsapi.ErrReadOnly
	}
	r, err = ov.copyUp(t, ino, r)
	if err != nil {
		return fsapi.Stat{}, err
	}
	st, err := ov.upper.Link(t, r.ino, rp.ino, name)
	if err != nil {
		return fsapi.Stat{}, err
	}
	return ov.mapStat(true, st), nil
}

// Open implements core.FileSystem.
func (ov *Overlay) Open(t *kernel.Task, ino fsapi.Ino) error {
	r, err := ov.real(ino)
	if err != nil {
		return err
	}
	return ov.layer(r).Open(t, r.ino)
}

// Release implements core.FileSystem.
func (ov *Overlay) Release(t *kernel.Task, ino fsapi.Ino) error {
	r, err := ov.real(ino)
	if err != nil {
		return err
	}
	return ov.layer(r).Release(t, r.ino)
}

// Read implements core.FileSystem.
func (ov *Overlay) Read(t *kernel.Task, ino fsapi.Ino, off int64, buf []byte) (int, error) {
	r, err := ov.real(ino)
	if err != nil {
		return 0, err
	}
	return ov.layer(r).Read(t, r.ino, off, buf)
}

// Write implements core.FileSystem (copy-up on first write).
func (ov *Overlay) Write(t *kernel.Task, ino fsapi.Ino, off int64, data []byte) (int, error) {
	r, err := ov.real(ino)
	if err != nil {
		return 0, err
	}
	r, err = ov.copyUp(t, ino, r)
	if err != nil {
		return 0, err
	}
	return ov.upper.Write(t, r.ino, off, data)
}

// Fsync implements core.FileSystem.
func (ov *Overlay) Fsync(t *kernel.Task, ino fsapi.Ino, dataOnly bool) error {
	r, err := ov.real(ino)
	if err != nil {
		return err
	}
	if !r.upper {
		return nil // read-only layer is already durable
	}
	return ov.upper.Fsync(t, r.ino, dataOnly)
}

// ReadDir implements core.FileSystem: a merged listing at the root,
// whiteouts applied; plain listings below.
func (ov *Overlay) ReadDir(t *kernel.Task, dir fsapi.Ino) ([]fsapi.DirEntry, error) {
	r, err := ov.real(dir)
	if err != nil {
		return nil, err
	}
	if !r.upper {
		ents, err := ov.lower.ReadDir(t, r.ino)
		if err != nil {
			return nil, err
		}
		for i := range ents {
			ents[i].Ino = ov.virt(false, ents[i].Ino)
		}
		return ents, nil
	}
	upperEnts, err := ov.upper.ReadDir(t, r.ino)
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool)
	white := make(map[string]bool)
	var out []fsapi.DirEntry
	for _, e := range upperEnts {
		if strings.HasPrefix(e.Name, whiteoutPrefix) {
			white[strings.TrimPrefix(e.Name, whiteoutPrefix)] = true
			continue
		}
		seen[e.Name] = true
		e.Ino = ov.virt(true, e.Ino)
		out = append(out, e)
	}
	if r.ino == fsapi.RootIno {
		lowerEnts, err := ov.lower.ReadDir(t, fsapi.RootIno)
		if err != nil {
			return nil, err
		}
		for _, e := range lowerEnts {
			if seen[e.Name] || white[e.Name] {
				continue
			}
			e.Ino = ov.virt(false, e.Ino)
			out = append(out, e)
		}
	}
	return out, nil
}

// SyncFS implements core.FileSystem.
func (ov *Overlay) SyncFS(t *kernel.Task) error {
	if err := ov.upper.SyncFS(t); err != nil {
		return err
	}
	return ov.lower.SyncFS(t)
}

var _ core.FileSystem = (*Overlay)(nil)
