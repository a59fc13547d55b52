package lifecycle

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
)

// fakeTarget records promotions like serve.Server.Swap does.
type fakeTarget struct {
	models   []*core.Model
	versions uint32
}

func (f *fakeTarget) Swap(m *core.Model) uint32 {
	f.models = append(f.models, m)
	f.versions++
	return f.versions
}

func trainCfg(seed int64) core.Config {
	cfg := core.DefaultConfig(seed)
	cfg.Labeling = core.LabelCutoff
	cfg.SearchThresholds = false
	cfg.Epochs = 6
	cfg.MaxTrainSamples = 4000
	cfg.Quantize = false
	return cfg
}

// worldSamples generates live traffic where slowness correlates with deep
// queues and big requests; inverted flips the correlation, producing a
// world where a model trained on the straight world ranks backwards.
func worldSamples(seed int64, n int, devices uint32, inverted bool) []core.LiveSample {
	rng := rand.New(rand.NewSource(seed))
	out := make([]core.LiveSample, 0, n)
	seqs := make([]uint64, devices)
	for i := 0; i < n; i++ {
		dev := uint32(i) % devices
		busy := (i/150)%2 == 1
		var s core.LiveSample
		s.Device = dev
		s.Seq = seqs[dev]
		seqs[dev]++
		slowFeatures := busy != inverted // inverted world: calm features, slow latency
		if slowFeatures {
			s.QueueLen = uint32(10 + rng.Intn(20))
			s.Size = 64 << 10
		} else {
			s.QueueLen = uint32(rng.Intn(3))
			s.Size = 4 << 10
		}
		if busy {
			s.LatencyNs = uint64(1_500_000 + rng.Intn(2_000_000))
		} else {
			s.LatencyNs = uint64(60_000 + rng.Intn(60_000))
		}
		out = append(out, s)
	}
	return out
}

// trainChampion trains a model the way a serving lifecycle does: the
// samples go through a Harvester, which gives each its serving feature
// row, and TrainLiveRows fits the whole reservoir.
func trainChampion(t *testing.T, samples []core.LiveSample, cfg core.Config) *core.Model {
	t.Helper()
	h := NewHarvester(Config{Seed: cfg.Seed, ReservoirPerDevice: len(samples), HoldoutEvery: -1}, cfg.Feature)
	feed(h, samples)
	m, err := core.TrainLiveRows(h.SnapshotReservoir(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func feed(h *Harvester, samples []core.LiveSample) {
	for _, s := range samples {
		h.OnCompletion(s.Device, s.LatencyNs, s.QueueLen, s.Size)
	}
}

func managerCfg(seed int64, workers int) Config {
	return Config{
		Seed:               seed,
		Train:              trainCfg(seed),
		ReservoirPerDevice: 512,
		HoldoutEvery:       4,
		HoldoutPerDevice:   128,
		EvalEvery:          1000,
		MinTrain:           400,
		MinHoldout:         48,
		Candidates:         2,
		WarmEpochs:         2,
		Workers:            workers,
	}
}

// champChal trains a deliberately backwards champion (inverted world) and
// a manager harvesting the straight world — the setup where a challenger
// must win decisively.
func runManagedFlow(t *testing.T, workers int) (*fakeTarget, *Manager, []TickReport) {
	t.Helper()
	champion := trainChampion(t, worldSamples(5, 2400, 2, true), trainCfg(5))
	tgt := &fakeTarget{}
	mgr, err := New(managerCfg(9, workers), champion, tgt)
	if err != nil {
		t.Fatal(err)
	}
	feed(mgr.Harvester(), worldSamples(6, 2400, 2, false))
	var reps []TickReport
	reps = append(reps, mgr.Tick()) // trains the candidate panel
	reps = append(reps, mgr.Tick()) // judges the challenger
	return tgt, mgr, reps
}

func TestManagerPromotesUnderShift(t *testing.T) {
	tgt, mgr, reps := runManagedFlow(t, 2)
	if !reps[0].Trained || reps[0].Candidates != 3 {
		t.Fatalf("first tick did not train a 3-candidate panel: %+v", reps[0])
	}
	if !reps[1].Judged || !reps[1].Promoted {
		t.Fatalf("second tick did not promote: %+v", reps[1])
	}
	if reps[1].ChallengerAUC <= reps[1].ChampionAUC {
		t.Fatalf("challenger AUC %v not above backwards champion %v",
			reps[1].ChallengerAUC, reps[1].ChampionAUC)
	}
	if len(tgt.models) != 1 || tgt.versions != 1 {
		t.Fatalf("target saw %d swaps", len(tgt.models))
	}
	if mgr.Champion() != tgt.models[0] {
		t.Fatal("manager champion is not the promoted model")
	}
	st := mgr.Stats()
	if st.Promotions != 1 || st.Rounds != 1 || st.ShadowOpen {
		t.Fatalf("stats after promotion: %+v", st)
	}
}

// TestManagerDeterministicAcrossWorkers: the whole train/judge flow at 1
// and 8 workers must agree bit-for-bit on what was trained and promoted.
func TestManagerDeterministicAcrossWorkers(t *testing.T) {
	_, mgr1, reps1 := runManagedFlow(t, 1)
	_, mgr8, reps8 := runManagedFlow(t, 8)
	for i := range reps1 {
		a, b := reps1[i], reps8[i]
		if a != b {
			t.Fatalf("tick %d diverges across worker counts:\n  w1: %+v\n  w8: %+v", i, a, b)
		}
	}
	if th1, th8 := mgr1.Champion().Threshold(), mgr8.Champion().Threshold(); math.Float64bits(th1) != math.Float64bits(th8) {
		t.Fatalf("promoted thresholds diverge: %v vs %v", th1, th8)
	}
}

// cloneWithThreshold snapshots a model and pins its threshold — the cheap
// way to make admit-all / decline-all variants of one network.
func cloneWithThreshold(t *testing.T, m *core.Model, th float64) *core.Model {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	c, err := core.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	c.SetThreshold(th)
	return c
}

func TestJudgeGates(t *testing.T) {
	champion := trainChampion(t, worldSamples(15, 2400, 2, false), trainCfg(15))

	setup := func(cfg Config) (*fakeTarget, *Manager) {
		t.Helper()
		tgt := &fakeTarget{}
		mgr, err := New(cfg, champion, tgt)
		if err != nil {
			t.Fatal(err)
		}
		feed(mgr.Harvester(), worldSamples(16, 1500, 2, false))
		return tgt, mgr
	}

	t.Run("accuracy", func(t *testing.T) {
		// Challenger == champion: identical AUC cannot clear the margin.
		tgt, mgr := setup(managerCfg(17, 2))
		mgr.challenger = cloneWithThreshold(t, champion, champion.Threshold())
		rep := mgr.Tick()
		if !rep.Judged || !rep.Rejected || rep.Promoted {
			t.Fatalf("want accuracy rejection, got %+v", rep)
		}
		if len(tgt.models) != 0 {
			t.Fatal("rejected challenger reached the target")
		}
		if st := mgr.Stats(); st.Rejections != 1 || st.ShadowOpen {
			t.Fatalf("stats after rejection: %+v", st)
		}
	})

	t.Run("fnr", func(t *testing.T) {
		cfg := managerCfg(18, 2)
		cfg.AUCMargin = -1 // let the AUC gate pass; FNR must still hold
		_, mgr := setup(cfg)
		mgr.challenger = cloneWithThreshold(t, champion, 2) // admits everything
		rep := mgr.Tick()
		if !rep.Rejected || rep.ChallengerFNR != 1 {
			t.Fatalf("admit-all challenger not FNR-rejected: %+v", rep)
		}
	})

	t.Run("shadow-decline", func(t *testing.T) {
		cfg := managerCfg(19, 2)
		cfg.AUCMargin = -1
		cfg.FNRSlack = 1
		_, mgr := setup(cfg)
		// Tap some live rows so the decline-rate guard has evidence.
		row := make([]float64, champion.Spec().Width())
		for i := 0; i < 64; i++ {
			row[0] = float64(i)
			mgr.Harvester().OnDecision(1, row, true)
		}
		mgr.challenger = cloneWithThreshold(t, champion, -1) // declines everything
		rep := mgr.Tick()
		if !rep.Rejected || rep.DeclineRate != 1 {
			t.Fatalf("decline-all challenger not shadow-rejected: %+v", rep)
		}
	})
}

func TestUrgencyLadder(t *testing.T) {
	champion := trainChampion(t, worldSamples(25, 2400, 2, false), trainCfg(25))
	cfg := managerCfg(26, 2)
	cfg.EvalEvery = 4096
	cfg.MinTrain = 100
	cfg.MinHoldout = 32
	tgt := &fakeTarget{}
	mgr, err := New(cfg, champion, tgt)
	if err != nil {
		t.Fatal(err)
	}
	feed(mgr.Harvester(), worldSamples(27, 1200, 2, false))

	if rep := mgr.Tick(); rep.Trained || rep.Judged {
		t.Fatalf("tick before the window filled did something: %+v", rep)
	}
	mgr.DriftAlert(0.05) // below moderate: no urgency
	if mgr.Urgency() != 0 {
		t.Fatal("sub-threshold PSI raised urgency")
	}
	mgr.DriftAlert(0.15) // moderate: halve the window (2048) — still unfilled
	if mgr.Urgency() != 1 {
		t.Fatalf("urgency %d after moderate PSI", mgr.Urgency())
	}
	if rep := mgr.Tick(); rep.Trained {
		t.Fatalf("moderate urgency filled a 2048 window with 1200 samples: %+v", rep)
	}
	mgr.DriftAlert(0.3) // major: quarter the window (1024) — now due
	if mgr.Urgency() != 2 {
		t.Fatalf("urgency %d after major PSI", mgr.Urgency())
	}
	mgr.DriftAlert(0.15) // urgency never steps down on a weaker alert
	if mgr.Urgency() != 2 {
		t.Fatal("weaker alert lowered urgency")
	}
	if rep := mgr.Tick(); !rep.Trained {
		t.Fatalf("major urgency did not trigger the round: %+v", rep)
	}
	// A promotion (manual or auto) resets the ladder.
	mgr.Promote(champion)
	if mgr.Urgency() != 0 {
		t.Fatal("promotion did not reset urgency")
	}
	if tgt.versions != 1 {
		t.Fatalf("manual promote did not reach the target: %d", tgt.versions)
	}
}

func TestRejectionRecalibratesChampion(t *testing.T) {
	champion := trainChampion(t, worldSamples(35, 2400, 2, false), trainCfg(35))
	cfg := managerCfg(36, 2)
	cfg.OnlineRecalibration = true
	cfg.TapEvery = 1
	cfg.TapPerDevice = 128
	tgt := &fakeTarget{}
	// Deploy a champion whose operating point has rotted: a threshold far
	// above any score it can produce, so it admits everything.
	rotted := cloneWithThreshold(t, champion, 999)
	mgr, err := New(cfg, rotted, tgt)
	if err != nil {
		t.Fatal(err)
	}
	feed(mgr.Harvester(), worldSamples(37, 1500, 2, false))
	// Tap live decide-time rows — the evidence recalibration uses.
	for _, s := range mgr.Harvester().SnapshotReservoir()[:64] {
		mgr.Harvester().OnDecision(s.Device, s.Row, true)
	}
	// Identical network: the accuracy gate must reject it, and the
	// rejection round must re-pin the surviving champion's threshold.
	mgr.challenger = cloneWithThreshold(t, rotted, rotted.Threshold())
	rep := mgr.Tick()
	if !rep.Rejected {
		t.Fatalf("want rejection, got %+v", rep)
	}
	if !rep.Recalibrated {
		t.Fatalf("rejection left the rotted champion unrecalibrated: %+v", rep)
	}
	if th := mgr.Champion().Threshold(); th == 999 {
		t.Fatal("champion threshold unchanged after recalibration")
	}
	if rotted.Threshold() != 999 {
		t.Fatal("recalibration mutated the serving model in place instead of republishing a copy")
	}
	if len(tgt.models) != 1 || tgt.models[0].Threshold() == 999 {
		t.Fatalf("recalibrated champion not republished to the target")
	}
	if st := mgr.Stats(); st.Recalibrations != 1 || st.Promotions != 0 {
		t.Fatalf("stats after maintenance: %+v", st)
	}
}
