package fast_test

import (
	"context"
	"errors"
	"fmt"
	"log"

	"fast"
)

// ExampleSimulate compares the TPU-v3 baseline against the paper's
// FAST-Large design on EfficientNet-B0.
func ExampleSimulate() {
	tpu := fast.TPUv3()
	g, err := fast.BuildModel("efficientnet-b0", tpu.NativeBatch)
	if err != nil {
		log.Fatal(err)
	}
	baseline, err := fast.Simulate(g, tpu, fast.BaselineOptions())
	if err != nil {
		log.Fatal(err)
	}

	fl := fast.FASTLarge()
	g2, err := fast.BuildModel("efficientnet-b0", fl.NativeBatch)
	if err != nil {
		log.Fatal(err)
	}
	optimized, err := fast.Simulate(g2, fl, fast.FASTOptions())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("FAST-Large beats TPU-v3 on Perf/TDP:", optimized.PerfPerTDP > baseline.PerfPerTDP)
	fmt.Println("fusion removed most of the memory stall:", optimized.MemStallPost < optimized.MemStallPre/2)
	// Output:
	// FAST-Large beats TPU-v3 on Perf/TDP: true
	// fusion removed most of the memory stall: true
}

// ExampleFASTSmall prints the Table 5 figures of FAST-Small next to
// FAST-Large: a quarter of the peak compute, a machine balanced on
// bandwidth instead of on fusion, and both inside the default budget.
func ExampleFASTSmall() {
	budget, pm := fast.DefaultBudget(), fast.DefaultPowerModel()
	for _, d := range []*fast.Design{fast.FASTSmall(), fast.FASTLarge()} {
		fmt.Printf("%s: %d PEs, %.0f TFLOP/s peak, %d MiB Global Memory, ridgepoint %.0f, within budget: %v\n",
			d.Name, d.NumPEs(), d.PeakFLOPs()/1e12, d.GlobalMiB, d.Ridgepoint(), budget.Within(pm, d))
	}
	// Output:
	// fast-small: 8 PEs, 33 TFLOP/s peak, 8 MiB Global Memory, ridgepoint 73, within budget: true
	// fast-large: 64 PEs, 131 TFLOP/s peak, 128 MiB Global Memory, ridgepoint 293, within budget: true
}

// ExampleStudy runs a tiny FAST search and checks the winning design
// fits the default power/area budget.
func ExampleStudy() {
	res, err := (&fast.Study{
		Workloads: []string{"mobilenetv2"},
		Objective: fast.ObjectivePerfPerTDP,
		Algorithm: fast.AlgorithmLCS,
		Trials:    40,
		Seed:      9,
	}).Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	budget := fast.DefaultBudget()
	pm := fast.DefaultPowerModel()
	fmt.Println("found a design:", res.Best != nil)
	fmt.Println("within budget:", budget.Within(pm, res.Best))
	// Output:
	// found a design: true
	// within budget: true
}

// ExampleStudy_paretoFront runs a small multi-objective study and walks
// its Perf/TDP × area Pareto front.
func ExampleStudy_paretoFront() {
	res, err := (&fast.Study{
		Workloads:  []string{"mobilenetv2"},
		Objectives: []fast.ObjectiveKind{fast.ObjectivePerfPerTDP, fast.ObjectiveArea},
		Trials:     48,
		Seed:       9,
		FrontCap:   4,
	}).Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	front := res.Front()
	budget := fast.DefaultBudget()
	pm := fast.DefaultPowerModel()
	allWithin := len(front) > 0
	sorted := true
	for i, p := range front {
		// p.Values[0] is Perf/TDP (QPS/W), p.Values[1] is area in mm².
		allWithin = allWithin && budget.Within(pm, p.Design)
		sorted = sorted && (i == 0 || p.Values[0] <= front[i-1].Values[0])
	}
	fmt.Println("found a front:", len(front) > 0)
	fmt.Println("every point within budget:", allWithin)
	fmt.Println("sorted by Perf/TDP:", sorted)
	// Output:
	// found a front: true
	// every point within budget: true
	// sorted by Perf/TDP: true
}

// ExampleStudy_resume interrupts a study mid-search and resumes it from
// a checkpoint, landing on the exact result an uninterrupted run
// produces. WithTranscript feeds every durable batch to a Snapshot (the
// same record fast-serve fsyncs to disk); WithResume replays it.
func ExampleStudy_resume() {
	study := func() *fast.Study {
		return &fast.Study{
			Workloads: []string{"mobilenetv2"},
			Objective: fast.ObjectivePerfPerTDP,
			Algorithm: fast.AlgorithmLCS,
			Trials:    48,
			Seed:      3,
		}
	}

	// First "process": checkpoint every told batch, crash after 16
	// trials. Only complete batches reach the transcript, so the
	// snapshot is always a clean resume point.
	var snap = fast.Snapshot{Algorithm: fast.AlgorithmLCS, Seed: 3, Budget: 48}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := study().Run(ctx, fast.WithBatchSize(8),
		fast.WithTranscript(func(batch []fast.Trial) {
			snap.Append(batch)
			if len(snap.Trials) >= 16 {
				cancel()
			}
		}))
	fmt.Println("interrupted:", errors.Is(err, context.Canceled))

	// Second "process": resume from the checkpoint and finish the
	// remaining budget.
	tail := 0
	resumed, err := study().Run(context.Background(), fast.WithBatchSize(8),
		fast.WithResume(snap),
		fast.WithTranscript(func(batch []fast.Trial) { tail += len(batch) }))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("finished the full budget:", len(snap.Trials)+tail == 48)

	// The interruption is invisible: an uninterrupted run of the same
	// study yields the identical winner.
	straight, err := study().Run(context.Background(), fast.WithBatchSize(8))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("identical to an uninterrupted study:",
		resumed.BestValue == straight.BestValue && resumed.Best.Name == straight.Best.Name)
	// Output:
	// interrupted: true
	// finished the full budget: true
	// identical to an uninterrupted study: true
}

// ExampleROIParams reproduces the paper's §5.1 break-even analysis for
// the FAST-Large speedup.
func ExampleROIParams() {
	p := fast.DefaultROI()
	breakEven := p.BreakEvenVolume(3.9)
	fmt.Println("break-even volume in the low thousands:", breakEven > 1000 && breakEven < 4000)
	fmt.Printf("ROI at 8000 units: %.1f\n", p.ROI(3.9, 8000))
	// Output:
	// break-even volume in the low thousands: true
	// ROI at 8000 units: 3.7
}
