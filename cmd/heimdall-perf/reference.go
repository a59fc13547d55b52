package main

import (
	"bytes"
	"errors"
	"sync"

	"repro/internal/core"
	"repro/internal/feature"
	"repro/internal/serve"
)

// Expected-verdict codes written by reference.replay.
const (
	refDecline uint8 = iota
	refAdmit
	refNone // no inference verdict: flagged by the server, or still held in an unfilled group
)

// reference is the sequential model of one serve shard: one message at a
// time, no batching, no clocks. It keeps what shard.process keeps per device
// — the completion window and, for joint models, the group being assembled —
// and scores through the same loaded model the child serves, so its verdicts
// are what the server must answer for the same per-device message order.
type reference struct {
	m    *core.Model
	spec feature.Spec
	p    int
	scr  *core.Scratch
	row  []float64
	devs []refDevice
	pos  int // next message of the stream
	ord  int // decides seen so far
	// onRow, when set, sees every raw row the reference scores (the probes
	// harvest their inputs through it).
	onRow func(dev uint32, row []float64, admit bool)
}

type refDevice struct {
	win       *feature.Window
	sizes     []int32
	headQ     uint32
	members   []int // decide ordinals held until the group fills
	fresh     int   // completions pushed since the stream last wrapped
	local     int   // the device's decides so far, flagged or not
	headLocal int   // local index of the open group's first member
}

func newReference(model []byte) (*reference, error) {
	m, err := core.Load(bytes.NewReader(model))
	if err != nil {
		return nil, err
	}
	r := &reference{m: m, spec: m.Spec(), p: m.JointSize(), scr: m.NewScratch()}
	r.devs = make([]refDevice, scriptDevices)
	for i := range r.devs {
		r.devs[i].win = feature.NewWindow(r.spec.Depth)
	}
	return r, nil
}

// replayOpts says how a replay call treats the stream.
type replayOpts struct {
	// flags[i] is the flag byte the server answered decide i with; nil means
	// nothing was flagged. A flagged decide got no inference, and a
	// FlagPartial one also reset its device's group, so the reference
	// regroups from the next unflagged decide exactly as shard.flushPartial
	// leaves the device.
	flags []uint8
	// Devices are independent, so several references can share a stream:
	// this one handles the devices with dev % stride == rem and leaves the
	// other decides' codes alone.
	stride, rem int
	// memo returns a code already known for a decide whose group sits on the
	// script's own group boundaries (per-pass decide counts are multiples of
	// the group size, so those are the same decides in every pass). Such a
	// group is not scored again. A group shifted off the boundaries by a
	// partial flush always is.
	memo func(ord int) uint8
	// memoNeedsFresh restricts memo to devices whose window holds only
	// completions of the current pass: the case of a memo taken from pass 1
	// while replaying pass 2, where the first rows still see pass 1's tail.
	memoNeedsFresh bool
}

// replay walks on through msgs, wrapping, until the stream has reached its
// n-th decide, and writes the expected code of decide i to out[i]. A later
// call continues where this one stopped.
func (r *reference) replay(msgs []msg, n int, out []uint8, o replayOpts) {
	for ; r.ord < n; r.pos++ {
		if r.pos == len(msgs) {
			r.pos = 0
			for i := range r.devs {
				r.devs[i].fresh = 0
			}
		}
		m := &msgs[r.pos]
		if m.kind == kindDecide {
			r.ord++
		}
		if int(m.dev)%o.stride != o.rem {
			continue
		}
		d := &r.devs[m.dev]
		if m.kind == kindComplete {
			// Mirrors shard.process: MB/s from size and latency.
			thpt := 0.0
			if m.lat > 0 {
				thpt = float64(m.size) / (1 << 20) / (float64(m.lat) / 1e9)
			}
			d.win.Push(feature.Hist{Latency: float64(m.lat), QueueLen: float64(m.qlen), Thpt: thpt})
			d.fresh++
			continue
		}
		i := r.ord - 1
		local := d.local
		d.local++
		out[i] = refNone
		if o.flags != nil && o.flags[i] != 0 {
			if o.flags[i]&serve.FlagPartial != 0 {
				d.sizes, d.members = d.sizes[:0], d.members[:0]
			}
			continue
		}
		if len(d.sizes) == 0 {
			d.headQ, d.headLocal = m.qlen, local
		}
		d.sizes = append(d.sizes, m.size)
		if len(d.sizes) < r.p {
			d.members = append(d.members, i)
			continue
		}
		var v uint8
		onBoundary := d.headLocal%r.p == 0 && local-d.headLocal == r.p-1
		if o.memo != nil && onBoundary && (!o.memoNeedsFresh || d.fresh >= r.spec.Depth) {
			v = o.memo(i)
		} else {
			// Head features plus the other members' sizes: the row
			// shard.stageDecide stages (for P = 1, the plain online row).
			r.row = r.spec.OnlineInto(r.row[:0], int(d.headQ), d.sizes[0], 0, 0, d.win)
			for _, sz := range d.sizes[1:] {
				r.row = append(r.row, float64(sz))
			}
			admit := r.m.AdmitInto(r.row, r.scr)
			if r.onRow != nil {
				r.onRow(m.dev, r.row, admit)
			}
			v = refDecline
			if admit {
				v = refAdmit
			}
		}
		for _, j := range d.members {
			out[j] = v
		}
		out[i] = v
		d.sizes, d.members = d.sizes[:0], d.members[:0]
	}
}

// expected holds the precomputed verdicts of one connection's stream for
// pass 1 and pass 2, assuming nothing is flagged. Pass 2 differs from pass 1
// only while a device's window still holds completions of the pass before;
// from pass 2 on every pass starts from the same windows and the same empty
// groups, so pass 2 stands for all later passes.
type expected struct {
	codes   []uint8
	perPass int
}

// precompute replays two passes of a connection's stream, sharing the
// devices among `workers` references.
func precompute(model []byte, msgs []msg, workers int) (*expected, error) {
	e := &expected{perPass: countDecides(msgs)}
	e.codes = make([]uint8, 2*e.perPass)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r, err := newReference(model)
			if err != nil {
				errs[w] = err
				return
			}
			o := replayOpts{stride: workers, rem: w}
			r.replay(msgs, e.perPass, e.codes, o)
			o.memo, o.memoNeedsFresh = func(ord int) uint8 { return e.codes[ord-e.perPass] }, true
			r.replay(msgs, 2*e.perPass, e.codes, o)
		}(w)
	}
	wg.Wait()
	return e, errors.Join(errs...)
}

func (e *expected) at(ord int) uint8 {
	if ord < e.perPass {
		return e.codes[ord]
	}
	return e.codes[e.perPass+ord%e.perPass]
}
