package main

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/iolog"
	"repro/internal/ssd"
	"repro/internal/trace"
)

const (
	scriptDevices = 8
	// scriptDur is each device's trace length. The whole script is one pass;
	// the load loops wrap onto the same device ids, so the server's working
	// set stays scriptDevices devices however long the run is.
	scriptDur = 8 * time.Second
	// jointP is decide-joint's JointSize (§4.2). Every device's per-pass
	// decide count is trimmed to a multiple of it, so group boundaries fall
	// on pass boundaries and pass 2 onwards repeats exactly.
	jointP = 4
)

const (
	kindDecide uint8 = iota
	kindComplete
)

// msg is one scripted wire message: a decide sent at the read's logged
// arrival with the logged queue length and size, or the completion of that
// same read sent at arrival+latency. The stream is shadow traffic: a read
// the server declines is still completed on its device, which is what keeps
// the message stream — and so every verdict — a pure function of the seed.
type msg struct {
	ts   int64
	lat  uint64
	qlen uint32
	size int32
	dev  uint32
	kind uint8
}

// script is one pass of traffic, split by owning connection.
type script struct {
	all  []msg
	hash string
	logs [][]iolog.Record // per device, reads only
}

// buildScript generates the seeded pass: device d replays the reads of
// MSRStyle(seed+100+d, dur) on its own always-admit Samsung970Pro, and the
// messages of all devices are merged by timestamp (ties: device, then decide
// before completion).
func buildScript(seed int64, dur time.Duration) *script {
	s := &script{logs: make([][]iolog.Record, scriptDevices)}
	for d := 0; d < scriptDevices; d++ {
		ds := seed + 100 + int64(d)
		tr := trace.Generate(trace.MSRStyle(ds, dur))
		reads := iolog.Reads(iolog.Collect(tr, ssd.New(ssd.Samsung970Pro(), ds)))
		reads = reads[:len(reads)-len(reads)%jointP]
		s.logs[d] = reads
		for _, r := range reads {
			s.all = append(s.all,
				msg{ts: r.Arrival, dev: uint32(d), kind: kindDecide, qlen: uint32(r.QueueLen), size: r.Size},
				msg{ts: r.Complete(), dev: uint32(d), kind: kindComplete, qlen: uint32(r.QueueLen), size: r.Size, lat: uint64(r.Latency)})
		}
	}
	slices.SortFunc(s.all, func(a, b msg) int {
		if c := cmp.Compare(a.ts, b.ts); c != 0 {
			return c
		}
		if c := cmp.Compare(a.dev, b.dev); c != 0 {
			return c
		}
		return cmp.Compare(a.kind, b.kind)
	})
	h := sha256.New()
	var rec [29]byte
	for _, m := range s.all {
		binary.LittleEndian.PutUint64(rec[0:], uint64(m.ts))
		binary.LittleEndian.PutUint64(rec[8:], m.lat)
		binary.LittleEndian.PutUint32(rec[16:], m.qlen)
		binary.LittleEndian.PutUint32(rec[20:], uint32(m.size))
		binary.LittleEndian.PutUint32(rec[24:], m.dev)
		rec[28] = m.kind
		_, _ = h.Write(rec[:]) // a hash.Hash write never fails
	}
	s.hash = hex.EncodeToString(h.Sum(nil)[:8])
	return s
}

// forConn returns the messages of the devices connection k owns
// (device % conns == k), in script order.
func (s *script) forConn(k, conns int) []msg {
	out := make([]msg, 0, len(s.all)/conns+1)
	for _, m := range s.all {
		if int(m.dev)%conns == k {
			out = append(out, m)
		}
	}
	return out
}

func countDecides(msgs []msg) int {
	n := 0
	for _, m := range msgs {
		if m.kind == kindDecide {
			n++
		}
	}
	return n
}

// servedConfig is the pipeline configuration of the model the decide-*
// workloads serve: the default pipeline cut to 10 epochs over 10 000 samples
// (heimdall-bench serve's self-host settings), so training stays about a
// second.
func servedConfig(seed int64, joint int) core.Config {
	cfg := core.DefaultConfig(seed)
	cfg.Epochs = 10
	cfg.MaxTrainSamples = 10000
	cfg.JointSize = joint
	return cfg
}

// servedTrainDur is the length of the trace the served model trains on:
// long enough (40–60 k reads) that the JointSize 4 model, which trains on
// one sample per 4 reads, reaches the 10 000-sample cap as well. On 4 s its
// training time followed the seed's read count, 0.55–0.95 s.
const servedTrainDur = 8 * time.Second

// trainServed trains the served model on MSRStyle(seed, dur) and returns it
// in core.Save form — the bytes the child server loads and the in-process
// reference loads too, so both decide with the same engine rung.
func trainServed(cfg core.Config, dur time.Duration) ([]byte, time.Duration, error) {
	tr := trace.Generate(trace.MSRStyle(cfg.Seed, dur))
	log := iolog.Collect(tr, ssd.New(ssd.Samsung970Pro(), cfg.Seed))
	start := time.Now()
	m, err := core.Train(log, cfg)
	if err != nil {
		return nil, 0, err
	}
	took := time.Since(start)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		return nil, 0, err
	}
	return buf.Bytes(), took, nil
}
