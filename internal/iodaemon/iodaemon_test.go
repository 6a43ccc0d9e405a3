package iodaemon

import "testing"

func TestWindowRampsAndCaps(t *testing.T) {
	var w Window
	type step struct {
		first, last          int64
		wantStart, wantCount int64
		wantSize             int64
	}
	steps := []step{
		// A stream from page 0 is detected immediately (fresh state).
		{0, 0, 1, 4, 4},
		// Sequential continuations double the window; fills start where
		// the previous window ended.
		{1, 1, 5, 5, 8},    // window 8, ahead was 5, ends at 2+8=10
		{2, 2, 10, 9, 16},  // window 16, ends at 3+16=19
		{3, 3, 19, 17, 32}, // window capped at 32, ends at 4+32=36
		{4, 4, 36, 1, 32},  // already 31 ahead; tops up to 5+32=37
	}
	for i, s := range steps {
		start, count := w.Access(s.first, s.last)
		if start != s.wantStart || count != s.wantCount || w.size != s.wantSize {
			t.Fatalf("step %d: Access(%d,%d) = (%d,%d) size %d; want (%d,%d) size %d",
				i, s.first, s.last, start, count, w.size, s.wantStart, s.wantCount, s.wantSize)
		}
	}
}

func TestWindowResetsOnSeek(t *testing.T) {
	var w Window
	w.Access(0, 0)
	w.Access(1, 1)
	if w.size != 8 {
		t.Fatalf("window after two sequential accesses = %d, want 8", w.size)
	}
	// Seek far away: the stream is broken, nothing is scheduled.
	if _, count := w.Access(100, 100); count != 0 {
		t.Fatalf("seek scheduled %d pages, want 0", count)
	}
	if w.size != 0 {
		t.Fatalf("window after seek = %d, want 0", w.size)
	}
	// The stream restarting at the new position re-ramps from the
	// initial window.
	start, count := w.Access(101, 101)
	if start != 102 || count != initWindow || w.size != initWindow {
		t.Fatalf("post-seek Access = (%d,%d) size %d, want (102,%d) size %d",
			start, count, w.size, initWindow, initWindow)
	}
}

func TestWindowSubPageSequentialKeepsStream(t *testing.T) {
	var w Window
	// A 1 KiB reader touches page 0 four times before reaching page 1;
	// the intra-page re-reads must not be classified as seeks.
	w.Access(0, 0)
	for i := 0; i < 3; i++ {
		w.Access(0, 0)
		if w.size == 0 {
			t.Fatalf("intra-page re-read %d collapsed the window", i)
		}
	}
	if _, count := w.Access(1, 1); w.size == 0 || count < 0 {
		t.Fatalf("stream lost at the page boundary: size %d", w.size)
	}
	if w.size != maxWindow {
		t.Fatalf("window = %d after a sustained sub-page stream, want %d", w.size, maxWindow)
	}
}

func TestWindowScalesToRequestSize(t *testing.T) {
	var w Window
	// A 16-page request must not get a 4-page window, or read-ahead
	// could never run ahead of the reader.
	if _, count := w.Access(0, 15); count != 32 {
		t.Fatalf("16-page request scheduled %d pages ahead, want 32", count)
	}
}

func TestRunsCoalesces(t *testing.T) {
	cases := []struct {
		keys []int64
		want []Run
	}{
		{nil, nil},
		{[]int64{5}, []Run{{5, 1}}},
		{[]int64{0, 1, 2, 3}, []Run{{0, 4}}},
		{[]int64{0, 1, 2, 9, 20, 21}, []Run{{0, 3}, {9, 1}, {20, 2}}},
	}
	for _, c := range cases {
		got := AppendRuns(nil, c.keys)
		if len(got) != len(c.want) {
			t.Fatalf("AppendRuns(nil, %v) = %v, want %v", c.keys, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("AppendRuns(nil, %v) = %v, want %v", c.keys, got, c.want)
			}
		}
	}
}
