package serve

import (
	"fmt"
	"math"
	"strings"
	"sync/atomic"
)

// batchBuckets is the number of power-of-two batch-size histogram buckets:
// bucket i counts batches of size in [2^i, 2^(i+1)).
const batchBuckets = 8

// counters is one shard's hot-path telemetry. Everything is atomic so the
// stats snapshot never takes a lock against the decide path.
type counters struct {
	admits     atomic.Uint64
	declines   atomic.Uint64
	sheds      atomic.Uint64 // queue-full fail-opens (reader side)
	deadline   atomic.Uint64 // in-queue deadline fail-opens (worker side)
	partial    atomic.Uint64 // joint groups flushed before filling
	breakered  atomic.Uint64 // decisions answered with the breaker open
	trips      atomic.Uint64
	recoveries atomic.Uint64
	batches    [batchBuckets]atomic.Uint64
	maxPSI     atomic.Uint64 // math.Float64bits, published per window
	held       atomic.Int64  // gauge: joint-group members currently deferred
}

func (c *counters) observeBatch(n int) {
	b := 0
	for n > 1 && b < batchBuckets-1 {
		n >>= 1
		b++
	}
	c.batches[b].Add(1)
}

// ShardStats is one shard's counter snapshot.
type ShardStats struct {
	Admits        uint64  `json:"admits"`
	Declines      uint64  `json:"declines"`
	Sheds         uint64  `json:"sheds"`
	DeadlineSheds uint64  `json:"deadline_sheds"`
	PartialFlush  uint64  `json:"partial_flushes"`
	BreakerOpen   uint64  `json:"breaker_answers"`
	Trips         uint64  `json:"trips"`
	Recoveries    uint64  `json:"recoveries"`
	QueueDepth    int     `json:"queue_depth"`
	MaxPSI        float64 `json:"max_psi"`
	Held          int64   `json:"held"`
}

func (c *counters) snapshot(depth int) ShardStats {
	return ShardStats{
		Admits:        c.admits.Load(),
		Declines:      c.declines.Load(),
		Sheds:         c.sheds.Load(),
		DeadlineSheds: c.deadline.Load(),
		PartialFlush:  c.partial.Load(),
		BreakerOpen:   c.breakered.Load(),
		Trips:         c.trips.Load(),
		Recoveries:    c.recoveries.Load(),
		QueueDepth:    depth,
		MaxPSI:        math.Float64frombits(c.maxPSI.Load()),
		Held:          c.held.Load(),
	}
}

// Stats is a point-in-time snapshot of the server's telemetry, exposed both
// in-process (Server.Stats) and over the wire (Client.Stats).
type Stats struct {
	Admits        uint64  `json:"admits"`
	Declines      uint64  `json:"declines"`
	Sheds         uint64  `json:"sheds"`
	DeadlineSheds uint64  `json:"deadline_sheds"`
	PartialFlush  uint64  `json:"partial_flushes"`
	BreakerOpen   uint64  `json:"breaker_answers"`
	Trips         uint64  `json:"trips"`
	Recoveries    uint64  `json:"recoveries"`
	Swaps         uint64  `json:"swaps"`
	ModelVersion  uint32  `json:"model_version"`
	QueueDepth    int     `json:"queue_depth"`
	MaxPSI        float64 `json:"max_psi"`
	// Held is the gauge of joint-group members whose verdicts are deferred
	// waiting for their group to fill; Drained counts decides answered by
	// the graceful-shutdown drain.
	Held          int64  `json:"held"`
	Drained       uint64 `json:"drained"`
	ConnsOpen     int    `json:"conns_open"`
	ConnsAccepted uint64 `json:"conns_accepted"`
	ConnDrops     uint64 `json:"conn_drops"`
	WriteDrops    uint64 `json:"write_drops"`
	// BatchHist[i] counts batches of size in [2^i, 2^(i+1)), summed over
	// shards.
	BatchHist [batchBuckets]uint64 `json:"batch_hist"`
	Shards    []ShardStats         `json:"shards"`
}

// Decisions returns the total number of answered decide requests.
func (s Stats) Decisions() uint64 { return s.Admits + s.Declines }

// String renders a one-line operator summary.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "decisions=%d admits=%d declines=%d sheds=%d deadline=%d partial=%d breaker=%d trips=%d swaps=%d v=%d depth=%d psi=%.3f conns=%d/%d drops=%d+%d drained=%d batches=[",
		s.Decisions(), s.Admits, s.Declines, s.Sheds, s.DeadlineSheds, s.PartialFlush,
		s.BreakerOpen, s.Trips, s.Swaps, s.ModelVersion, s.QueueDepth, s.MaxPSI,
		s.ConnsOpen, s.ConnsAccepted, s.ConnDrops, s.WriteDrops, s.Drained)
	for i, n := range s.BatchHist {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d", n)
	}
	b.WriteByte(']')
	return b.String()
}

func (s *Stats) add(sh ShardStats) {
	s.Admits += sh.Admits
	s.Declines += sh.Declines
	s.Sheds += sh.Sheds
	s.DeadlineSheds += sh.DeadlineSheds
	s.PartialFlush += sh.PartialFlush
	s.BreakerOpen += sh.BreakerOpen
	s.Trips += sh.Trips
	s.Recoveries += sh.Recoveries
	s.QueueDepth += sh.QueueDepth
	s.Held += sh.Held
	if sh.MaxPSI > s.MaxPSI {
		s.MaxPSI = sh.MaxPSI
	}
	s.Shards = append(s.Shards, sh)
}
