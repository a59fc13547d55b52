// Command heimdall-serve runs the online admission service: it loads a
// trained model (heimdall-train -out) — or trains one in-process from a
// synthetic style for self-contained runs — and serves admit/decline
// decisions over the binary wire protocol on TCP or a unix socket.
//
// Usage:
//
//	heimdall-serve -model model.bin -listen tcp:127.0.0.1:7710
//	heimdall-serve -style msr -dur 10s -listen unix:/tmp/heimdall.sock
//
// When training in-process the server also wires the per-shard input-drift
// detectors (PSI against the training feature distribution); the client
// Stats call and the final snapshot then report max_psi alongside the
// admission counters. A new model can be hot-swapped at any time with the
// client Swap call without pausing admission.
//
// With -managed the server runs the continuous-learning lifecycle
// (internal/lifecycle): live completions are harvested into per-device
// reservoirs, challenger panels retrain in the background, shadow-score
// against the champion on held-out live traffic, and auto-promote through
// the atomic hot-swap when they clear the accuracy and FNR gates. PSI
// drift alerts shorten the evaluation window. See the -managed-* flags.
//
// SIGINT/SIGTERM shut down cleanly: listeners stop, queued requests are
// answered (joint-group stragglers fail open), and the final counter
// snapshot is printed.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/feature"
	"repro/internal/iolog"
	"repro/internal/lifecycle"
	"repro/internal/serve"
	"repro/internal/ssd"
	"repro/internal/trace"
)

func main() {
	modelPath := flag.String("model", "", "serialized model from heimdall-train -out")
	style := flag.String("style", "", "train in-process from a synthetic style instead: msr, alibaba, tencent")
	dur := flag.Duration("dur", 10*time.Second, "synthetic training-trace duration")
	device := flag.String("device", "970pro", "simulated device for in-process training: 970pro, s3610, pm961, femu")
	seed := flag.Int64("seed", 1, "training seed")
	joint := flag.Int("joint", 1, "joint-inference granularity P for in-process training")
	int8Flag := flag.Bool("int8", false, "decide through the batched int8 engine (calibrated at training time, or from the model's own training data when loading -model)")
	listen := flag.String("listen", "tcp:127.0.0.1:7710", `listen address: "tcp:host:port" or "unix:/path/sock"`)
	shards := flag.Int("shards", 0, "device shards (0 = default 4)")
	queueLen := flag.Int("queue", 0, "per-shard queue bound (0 = default 256)")
	window := flag.Duration("batch-window", 0, "micro-batch gather window (0 = decide immediately)")
	maxBatch := flag.Int("max-batch", 0, "per-wakeup batch bound (0 = default 64)")
	budget := flag.Duration("budget", 0, "queue-age deadline; older decides fail open (0 = off)")
	readTimeout := flag.Duration("read-timeout", 0, "per-connection idle read deadline; silent peers are dropped (0 = off)")
	writeTimeout := flag.Duration("write-timeout", 0, "per-response write deadline; slow peers are shed (0 = off)")
	managed := flag.Bool("managed", false, "run the continuous-learning lifecycle: harvest live completions, train challengers in the background, auto-promote when they clear the gates")
	managedInterval := flag.Duration("managed-interval", time.Second, "lifecycle tick cadence (rounds themselves are completion-count paced)")
	managedEvalEvery := flag.Int("managed-eval-every", 0, "harvested completions per retrain round at urgency 0 (0 = default 4096)")
	managedReservoir := flag.Int("managed-reservoir", 0, "per-device training reservoir size (0 = default 512)")
	managedCandidates := flag.Int("managed-candidates", 0, "cold-retrain candidates per round (0 = default 2)")
	managedWorkers := flag.Int("managed-parallel", 0, "candidate-training workers (0 = GOMAXPROCS)")
	managedRecal := flag.Bool("managed-recal", true, "re-pin decision thresholds on live tapped rows (challengers before judging, the champion on rejection rounds)")
	flag.Parse()

	var (
		model *core.Model
		ref   [][]float64
	)
	switch {
	case *modelPath != "":
		f, err := os.Open(*modelPath)
		if err != nil {
			fatal(err)
		}
		model, err = core.Load(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fatal(err)
		}
		fmt.Printf("loaded %s: %d-deep features, joint=%d, threshold %.3f\n",
			*modelPath, model.Spec().Depth, model.JointSize(), model.Threshold())
		if *int8Flag {
			// A model saved from a Quantize8 training run already carries
			// calibrated activation scales; otherwise EnableInt8 falls back
			// to analytic bounds (coarser, still correct).
			calibrated := model.Quantized8() != nil
			if err := model.EnableInt8(nil); err != nil {
				fatal(err)
			}
			if calibrated {
				fmt.Println("int8 engine active (calibrated scales from model file)")
			} else {
				fmt.Println("int8 engine active (analytic fallback scales; retrain with Quantize8 for calibrated ones)")
			}
		}
	default:
		devCfg, err := deviceByName(*device)
		if err != nil {
			fatal(err)
		}
		styleName := *style
		if styleName == "" {
			styleName = "msr"
		}
		tr, err := traceByStyle(styleName, *seed, *dur)
		if err != nil {
			fatal(err)
		}
		log := iolog.Collect(tr, ssd.New(devCfg, *seed))
		cfg := core.DefaultConfig(*seed)
		cfg.JointSize = *joint
		cfg.Quantize8 = *int8Flag
		start := time.Now()
		model, err = core.Train(log, cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("trained in-process (%s, %v trace) in %v: threshold %.3f\n",
			styleName, *dur, time.Since(start).Round(time.Millisecond), model.Threshold())
		if *int8Flag {
			fmt.Println("int8 engine active (activation scales calibrated on training rows)")
		}
		// Wire the drift detectors against the training distribution, so
		// Stats.MaxPSI tracks how far live traffic has wandered from what
		// the model saw (§7's retraining signal).
		ref = feature.Extract(iolog.Reads(log), model.Spec())
	}

	scfg := serve.Config{
		Shards:       *shards,
		QueueLen:     *queueLen,
		BatchWindow:  *window,
		MaxBatch:     *maxBatch,
		Budget:       *budget,
		ReadTimeout:  *readTimeout,
		WriteTimeout: *writeTimeout,
		DriftRef:     ref,
	}
	var mgr *lifecycle.Manager
	if *managed {
		train := core.DefaultConfig(*seed)
		// Harvested samples carry latency, queue depth, and size but only
		// reconstructed arrivals, so live retraining labels with the
		// per-size-class latency knee instead of period search.
		train.Labeling = core.LabelCutoffSize
		train.SearchThresholds = false
		train.Quantize8 = *int8Flag
		var err error
		mgr, err = lifecycle.New(lifecycle.Config{
			Seed:                *seed,
			Train:               train,
			ReservoirPerDevice:  *managedReservoir,
			EvalEvery:           *managedEvalEvery,
			Candidates:          *managedCandidates,
			Workers:             *managedWorkers,
			OnlineRecalibration: *managedRecal,
		}, model, nil)
		if err != nil {
			fatal(err)
		}
		scfg.Completions = mgr.Harvester()
		scfg.Decisions = mgr.Harvester()
		scfg.OnDrift = mgr.DriftAlert
	}

	srv := serve.NewServer(model, scfg)
	l, err := serve.Listen(*listen)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("serving on %s\n", *listen)

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()

	tickerDone := make(chan struct{})
	if mgr != nil {
		// Promotions hot-swap straight into the running server.
		mgr.Retarget(srv)
		ticker := time.NewTicker(*managedInterval)
		go func() {
			defer close(tickerDone)
			for {
				select {
				case <-ticker.C:
					logTick(mgr.Tick())
				case <-tickerDone:
					return
				}
			}
		}()
		fmt.Printf("lifecycle: managed mode on (tick %v)\n", *managedInterval)
	}

	select {
	case sig := <-sigs:
		fmt.Printf("%v: shutting down\n", sig)
		if mgr != nil {
			tickerDone <- struct{}{}
		}
		if err := srv.Close(); err != nil {
			fatal(err)
		}
		if err := <-done; err != nil {
			fatal(err)
		}
	case err := <-done:
		if err != nil {
			fatal(err)
		}
	}
	fmt.Printf("final: %s\n", srv.Stats())
	if mgr != nil {
		st := mgr.Stats()
		fmt.Printf("lifecycle: harvested %d, rounds %d, promotions %d, rejections %d, recalibrations %d, model v%d, urgency %d\n",
			st.Harvested, st.Rounds, st.Promotions, st.Rejections, st.Recalibrations, st.Version, st.Urgency)
	}
}

// logTick prints the lifecycle events worth a log line; quiet ticks (the
// vast majority) print nothing.
func logTick(rep lifecycle.TickReport) {
	switch {
	case rep.Trained:
		fmt.Printf("lifecycle: trained %d candidates, best holdout AUC %.3f\n", rep.Candidates, rep.BestAUC)
	case rep.Promoted:
		fmt.Printf("lifecycle: promoted v%d (AUC %.3f vs %.3f, FNR %.3f vs %.3f)\n",
			rep.Version, rep.ChallengerAUC, rep.ChampionAUC, rep.ChallengerFNR, rep.ChampionFNR)
	case rep.Rejected:
		extra := ""
		if rep.Recalibrated {
			extra = fmt.Sprintf("; champion recalibrated to v%d", rep.Version)
		}
		fmt.Printf("lifecycle: challenger rejected — %s%s\n", rep.Reason, extra)
	}
}

func deviceByName(name string) (ssd.Config, error) {
	switch name {
	case "970pro":
		return ssd.Samsung970Pro(), nil
	case "s3610":
		return ssd.IntelDCS3610(), nil
	case "pm961":
		return ssd.SamsungPM961(), nil
	case "femu":
		return ssd.FEMUEmulated(), nil
	}
	return ssd.Config{}, fmt.Errorf("unknown device %q", name)
}

func traceByStyle(style string, seed int64, dur time.Duration) (*trace.Trace, error) {
	switch style {
	case "msr":
		return trace.Generate(trace.MSRStyle(seed, dur)), nil
	case "alibaba":
		return trace.Generate(trace.AlibabaStyle(seed, dur)), nil
	case "tencent":
		return trace.Generate(trace.TencentStyle(seed, dur)), nil
	}
	return nil, fmt.Errorf("unknown style %q", style)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "heimdall-serve:", err)
	os.Exit(1)
}
