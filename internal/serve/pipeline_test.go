package serve

import (
	"bytes"
	"encoding/binary"
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// loopConn is a stub net.Conn whose reads replay one canned response frame
// forever and whose writes vanish — the client-side alloc pins need a
// deterministic peer with no sockets and no goroutines.
type loopConn struct {
	resp []byte
	off  int
}

func (l *loopConn) Read(p []byte) (int, error) {
	n := copy(p, l.resp[l.off:])
	l.off = (l.off + n) % len(l.resp)
	return n, nil
}

func (l *loopConn) Write(p []byte) (int, error)        { return len(p), nil }
func (l *loopConn) Close() error                       { return nil }
func (l *loopConn) LocalAddr() net.Addr                { return nil }
func (l *loopConn) RemoteAddr() net.Addr               { return nil }
func (l *loopConn) SetDeadline(t time.Time) error      { return nil }
func (l *loopConn) SetReadDeadline(t time.Time) error  { return nil }
func (l *loopConn) SetWriteDeadline(t time.Time) error { return nil }

// cannedDecideResp frames one decide response for the stub peer.
func cannedDecideResp(id uint64) []byte {
	body := []byte{msgDecideResp}
	body = binary.BigEndian.AppendUint64(body, id)
	body = append(body, 1, 0) // admit, no flags
	body = binary.BigEndian.AppendUint32(body, 1)
	var buf bytes.Buffer
	if err := writeFrame(&buf, body); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// TestClientDecideZeroAlloc pins the synchronous client round trip: encode
// into the reused write buffer, flush, decode in place out of the read
// buffer — no allocation once warm.
func TestClientDecideZeroAlloc(t *testing.T) {
	c := NewClient(&loopConn{resp: cannedDecideResp(0)})
	if _, err := c.Decide(1, 4, 4096); err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(400, func() {
		if _, err := c.Decide(1, 4, 4096); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("Client.Decide allocates %.2f per op", a)
	}
}

// TestPipelineZeroAlloc pins the windowed submit/complete path: buffered
// encodes while the window has room, a flush/receive pair plus batched reap
// when it fills, and interleaved Completes riding the same write buffer —
// all allocation-free once the reap buffer is warm.
func TestPipelineZeroAlloc(t *testing.T) {
	c := NewClient(&loopConn{resp: cannedDecideResp(0)})
	p := c.Pipeline(32)
	for i := 0; i < 64; i++ { // fill the window and warm the reap buffer
		if _, _, err := p.Submit(1, 4, 4096); err != nil {
			t.Fatal(err)
		}
	}
	if a := testing.AllocsPerRun(400, func() {
		if _, _, err := p.Submit(1, 4, 4096); err != nil {
			t.Fatal(err)
		}
		if err := c.Complete(1, 120_000, 4, 4096); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("pipelined submit/complete allocates %.2f per op", a)
	}
}

// TestClientPipeline runs the windowed API against a live server: every
// submitted id comes back exactly once, reaps only start once the window
// fills, and Drain empties the window.
func TestClientPipeline(t *testing.T) {
	m := testModel(t, 28, 1)
	srv := NewServer(m, Config{Shards: 2, QueueLen: 4096})
	addr := startServer(t, srv)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const window, n = 16, 300
	p := c.Pipeline(window)
	seen := make(map[uint64]bool)
	for i := 0; i < n; i++ {
		id, reaped, err := p.Submit(1, i%8, 4096)
		if err != nil {
			t.Fatal(err)
		}
		if want := uint64(i + 1); id != want {
			t.Fatalf("submit %d assigned id %d, want %d", i, id, want)
		}
		if i < window-1 && len(reaped) > 0 {
			t.Fatalf("submit %d reaped before the window filled", i)
		}
		for _, v := range reaped {
			if seen[v.ID] {
				t.Fatalf("verdict %d delivered twice", v.ID)
			}
			seen[v.ID] = true
		}
		if p.Inflight() > window {
			t.Fatalf("inflight %d exceeds window %d", p.Inflight(), window)
		}
	}
	rest, err := p.Drain(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rest {
		if seen[v.ID] {
			t.Fatalf("verdict %d delivered twice", v.ID)
		}
		seen[v.ID] = true
	}
	if p.Inflight() != 0 {
		t.Fatalf("inflight %d after drain", p.Inflight())
	}
	if len(seen) != n {
		t.Fatalf("%d unique verdicts, want %d", len(seen), n)
	}
	for id := uint64(1); id <= n; id++ {
		if !seen[id] {
			t.Fatalf("id %d never answered", id)
		}
	}
}

// TestResilientSubmitFailOpen pins the windowed fail-open contract: with no
// server at the address, every Submit still resolves — each id surfaces
// exactly once as a FlagLocal admit through the reap/drain path.
func TestResilientSubmitFailOpen(t *testing.T) {
	addr := "unix:" + filepath.Join(t.TempDir(), "nobody.sock")
	r := DialResilient(addr, ClientConfig{BackoffBase: -1, DialTimeout: 50 * time.Millisecond})
	defer r.Close()

	const window, n = 8, 100
	seen := make(map[uint64]bool)
	reap := func(v Verdict) {
		if !v.Admit || v.Flags&FlagLocal == 0 {
			t.Fatalf("dead-wire verdict %+v is not a local fail-open admit", v)
		}
		if seen[v.ID] {
			t.Fatalf("verdict %d delivered twice", v.ID)
		}
		seen[v.ID] = true
	}
	for i := 0; i < n; i++ {
		if _, v, reaped := r.Submit(window, 1, i%8, 4096); reaped {
			reap(v)
		}
	}
	for _, v := range r.Drain(nil) {
		reap(v)
	}
	if len(seen) != n {
		t.Fatalf("%d verdicts, want %d", len(seen), n)
	}
	if got := r.Counters().LocalVerdicts; got != n {
		t.Fatalf("LocalVerdicts = %d, want %d", got, n)
	}
}

// TestResilientSubmitRemote is the healthy-wire half: against a live server
// the windowed path delivers every verdict remotely, none synthesized.
func TestResilientSubmitRemote(t *testing.T) {
	m := testModel(t, 29, 1)
	srv := NewServer(m, Config{Shards: 2, QueueLen: 4096})
	addr := startServer(t, srv)
	r := DialResilient(addr, ClientConfig{})
	defer r.Close()

	const window, n = 16, 300
	seen := 0
	for i := 0; i < n; i++ {
		if _, v, reaped := r.Submit(window, 1, i%8, 4096); reaped {
			if v.Flags&FlagLocal != 0 {
				t.Fatalf("local verdict %+v on a healthy wire", v)
			}
			seen++
		}
	}
	for _, v := range r.Drain(nil) {
		if v.Flags&FlagLocal != 0 {
			t.Fatalf("local verdict %+v on a healthy wire", v)
		}
		seen++
	}
	if seen != n {
		t.Fatalf("%d verdicts, want %d", seen, n)
	}
	if c := r.Counters(); c.RemoteVerdicts != n || c.LocalVerdicts != 0 {
		t.Fatalf("counters %+v: want %d remote, 0 local", c, n)
	}
}

// runDevicePipelined replays a device script through the windowed Pipeline
// API (completions ride the same write buffer) and returns verdicts indexed
// by decide sequence — Pipeline ids are sequential from 1.
func runDevicePipelined(t *testing.T, addr string, device uint32, ops []op, window int) []Verdict {
	t.Helper()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := c.Close(); err != nil {
			t.Errorf("client close: %v", err)
		}
	}()
	p := c.Pipeline(window)
	ndecide := 0
	var got []Verdict
	for _, o := range ops {
		if o.decide {
			_, reaped, err := p.Submit(device, o.queueLen, o.size)
			if err != nil {
				t.Fatal(err)
			}
			ndecide++
			got = append(got, reaped...)
		} else {
			if err := c.Complete(device, o.latency, o.queueLen, o.size); err != nil {
				t.Fatal(err)
			}
		}
	}
	got, err = p.Drain(got)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]Verdict, ndecide)
	for _, v := range got {
		if v.ID == 0 || v.ID > uint64(ndecide) {
			t.Fatalf("verdict id %d out of range", v.ID)
		}
		out[v.ID-1] = v
	}
	return out
}

// TestServeDeterminismPipelined extends the determinism contract over
// client pipeline depth and the gather window: however deep the window and
// however the batches form, verdicts must stay byte-identical to the
// sequential reference, and no batch may exceed MaxBatch.
func TestServeDeterminismPipelined(t *testing.T) {
	const devs, opsPer = 5, 200
	for _, joint := range []int{1, 4} {
		m := testModel(t, 27, joint)
		const q = 8192
		ref := decisionTrace(t, m, Config{Shards: 1, MaxBatch: 1, QueueLen: q, GroupTimeout: time.Minute}, devs, opsPer, joint)
		for _, tc := range []struct {
			cfg    Config
			window int
		}{
			// Fully-pipelined clients: each writes its whole script at once,
			// so the backlog outgrows MaxBatch.
			{Config{Shards: 2, MaxBatch: 64, QueueLen: q, GroupTimeout: time.Minute}, 0},
			// Windowed pipeline against a fixed batch shape.
			{Config{Shards: 4, MaxBatch: 32, QueueLen: q, GroupTimeout: time.Minute}, 24},
			// Windowed pipeline with a gather window, so shallow drains linger.
			{Config{Shards: 4, BatchWindow: 20 * time.Microsecond, MaxBatch: 64, QueueLen: q, GroupTimeout: time.Minute}, 16},
		} {
			srv := NewServer(m, tc.cfg)
			addr := startServer(t, srv)
			var wg sync.WaitGroup
			var mu sync.Mutex
			got := make(map[uint32][]Verdict)
			for d := 0; d < devs; d++ {
				wg.Add(1)
				go func(device uint32) {
					defer wg.Done()
					ops := deviceOps(int64(device)+100, opsPer, joint)
					var vs []Verdict
					if tc.window > 0 {
						vs = runDevicePipelined(t, addr, device, ops, tc.window)
					} else {
						vs = runDevice(t, addr, device, ops)
					}
					mu.Lock()
					got[device] = vs
					mu.Unlock()
				}(uint32(d))
			}
			wg.Wait()
			// BatchHist bucket i counts batches of size [2^i, 2^(i+1)), so
			// any count in a bucket that starts above MaxBatch is a batch
			// over the cap.
			for i, n := range srv.Stats().BatchHist {
				if n > 0 && 1<<i > tc.cfg.MaxBatch {
					t.Fatalf("joint=%d maxBatch=%d window=%d: %d batches of size >= %d",
						joint, tc.cfg.MaxBatch, tc.window, n, 1<<i)
				}
			}
			for d := uint32(0); d < devs; d++ {
				if len(got[d]) != len(ref[d]) {
					t.Fatalf("joint=%d maxBatch=%d window=%d device %d: %d verdicts, reference %d",
						joint, tc.cfg.MaxBatch, tc.window, d, len(got[d]), len(ref[d]))
				}
				for i, v := range got[d] {
					if v.Flags != 0 {
						t.Fatalf("joint=%d maxBatch=%d window=%d device %d decision %d degraded (flags %#x)",
							joint, tc.cfg.MaxBatch, tc.window, d, i, v.Flags)
					}
					if v.Admit != ref[d][i] {
						t.Fatalf("joint=%d maxBatch=%d window=%d device %d decision %d: %v != sequential %v",
							joint, tc.cfg.MaxBatch, tc.window, d, i, v.Admit, ref[d][i])
					}
				}
			}
		}
	}
}
