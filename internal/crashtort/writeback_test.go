package crashtort

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"bento/internal/blockdev"
	"bento/internal/costmodel"
	"bento/internal/fsapi"
	"bento/internal/harness"
	"bento/internal/iodaemon"
	"bento/internal/kernel"
	"bento/internal/trace"
	"bento/internal/xv6/layout"
)

// wbPages is the file the write-back sweep writes: three write-back
// chunks (Bento's transaction and ext4's operation both take 32 pages).
const wbPages = 3 * 32

// wbPage is page i of version v of the sweep's file: the page number and
// the version, then a fill byte, so a page holding another page's or
// version's contents — or metadata — is told apart from this one.
func wbPage(v, i int) []byte {
	p := bytes.Repeat([]byte{byte(v*37 + i)}, fsapi.PageSize)
	binary.LittleEndian.PutUint32(p, uint32(i))
	p[4] = byte(v)
	return p
}

// wbOutcome is what one run of the write-back script left: how many
// versions of the file an fsync acknowledged before the cut, and the
// run's write-class commands and merged device writes.
type wbOutcome struct {
	acked          int
	writes, merged int64
}

// wbRun mounts variant with barriers and the bypass on and the I/O
// daemon attached, and writes /f twice — version 1 creating it, version 2
// overwriting it — each time all wbPages pages and then fsync. The dirty
// limit is one chunk, so the flusher writes back with the device plugged
// while the writer writes. cut > 0 cuts power after that many write-class
// commands; the script then stops at the first failure.
func wbRun(t *testing.T, variant string, cut int64) (*blockdev.Device, wbOutcome) {
	t.Helper()
	model := costmodel.Default()
	dev := blockdev.MustNew(blockdev.Config{Blocks: 4096, Model: model})
	rec := trace.New()
	dev.SetRecorder(rec)
	k := kernel.New(model)
	task := k.NewTask("writer")
	m, err := harness.Mount(k, task, dev, variant, harness.MountConfig{Barriers: true, Bypass: true}, 512)
	if err != nil {
		t.Fatal(err)
	}
	m.EnableIODaemon(iodaemon.Config{})
	m.SetDirtyLimit(32)
	var out wbOutcome
	base := dev.WriteCmds()
	if cut > 0 {
		dev.ArmPowerCut(cut)
	}
	for v := 1; v <= 2; v++ {
		if err := wbVersion(m, task, v); err != nil {
			if !dev.PowerOut() {
				t.Fatalf("version %d failed with power on: %v", v, err)
			}
			break
		}
		out.acked = v
	}
	out.writes = dev.WriteCmds() - base
	out.merged = rec.Counters()["dev_write_merged"]
	return dev, out
}

// wbVersion writes version v of /f and fsyncs it.
func wbVersion(m *kernel.Mount, task *kernel.Task, v int) error {
	f, err := m.Open(task, "/f", fsapi.OCreate|fsapi.ORdwr)
	if err != nil {
		return err
	}
	for i := 0; i < wbPages; i++ {
		if _, err := f.PWrite(task, wbPage(v, i), int64(i)*fsapi.PageSize); err != nil {
			return err
		}
	}
	if err := f.FSync(task); err != nil {
		return err
	}
	return m.Close(task, f)
}

// wbCheck remounts dev after the cut and checks what the script's fsyncs
// promised: the image checks clean; once version a is acknowledged every
// page holds version a or a later one's, and with nothing acknowledged /f
// may be missing or short, but every page it has is version 1's or zeros.
// No page ever holds bytes of another page or of something else.
func wbCheck(variant string, dev *blockdev.Device, acked int) error {
	k := kernel.New(costmodel.Default())
	task := k.NewTask("recover")
	m, err := harness.Mount(k, task, dev, variant, harness.MountConfig{Barriers: true, Bypass: true}, 0)
	if err != nil {
		return fmt.Errorf("recovery mount: %w", err)
	}
	rep, err := layout.Fsck(task.Clk, dev)
	if err != nil {
		return fmt.Errorf("fsck: %w", err)
	}
	if !rep.OK() {
		return fmt.Errorf("fsck: %v", rep.Errors)
	}
	data, err := m.ReadFile(task, "/f")
	if errors.Is(err, fsapi.ErrNotExist) && acked == 0 {
		return nil
	}
	if err != nil {
		return fmt.Errorf("read /f: %w", err)
	}
	if len(data)%fsapi.PageSize != 0 || len(data) > wbPages*fsapi.PageSize ||
		(acked > 0 && len(data) != wbPages*fsapi.PageSize) {
		return fmt.Errorf("/f is %d bytes with version %d acknowledged", len(data), acked)
	}
	zero := make([]byte, fsapi.PageSize)
	for i := 0; i*fsapi.PageSize < len(data); i++ {
		got := data[i*fsapi.PageSize : (i+1)*fsapi.PageSize]
		ok := bytes.Equal(got, wbPage(2, i)) && acked >= 1 ||
			bytes.Equal(got, wbPage(1, i)) && acked <= 1 ||
			bytes.Equal(got, zero) && acked == 0
		if !ok {
			return fmt.Errorf("page %d holds bytes %x… that are not its own, with version %d acknowledged", i, got[:8], acked)
		}
	}
	return nil
}

// TestPowerCutWriteBackSweep cuts power at every write-class command of
// the write-back script on Bento (PolicyFlush) and ext4 (barriers), both
// with the data bypass and the I/O daemon, so the cut lands inside plugged
// write-back chunks whose blocks joined one device command and inside
// commits that waited for their ordered data. After Crash(0) and a
// remount, wbCheck must pass at every point.
func TestPowerCutWriteBackSweep(t *testing.T) {
	for _, variant := range []string{harness.VariantBento, harness.VariantExt4} {
		t.Run(variant, func(t *testing.T) {
			_, golden := wbRun(t, variant, 0)
			if golden.acked != 2 || golden.merged == 0 {
				t.Fatalf("golden run: %d versions acknowledged, %d writes merged; want 2 and some", golden.acked, golden.merged)
			}
			for cut := int64(1); cut <= golden.writes; cut++ {
				dev, out := wbRun(t, variant, cut)
				dev.Crash(0, cut)
				dev.DisarmPowerCut()
				if err := wbCheck(variant, dev, out.acked); err != nil {
					t.Fatalf("cut after write command %d of %d: %v", cut, golden.writes, err)
				}
			}
			t.Logf("%d crash points recovered; the golden run merged %d writes", golden.writes, golden.merged)
		})
	}
}
