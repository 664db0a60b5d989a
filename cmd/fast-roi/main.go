// Command fast-roi evaluates the §5.1 return-on-investment model: ROI at
// a given deployment volume and the break-even volumes for a set of
// Perf/TCO improvements.
//
// Usage:
//
//	fast-roi -speedup 3.9 -volume 5000
//	fast-roi -speedups 1.5,2,4,10,100
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"fast"
)

func main() {
	var (
		speedup  = flag.Float64("speedup", 0, "single Perf/TCO improvement to evaluate")
		volume   = flag.Float64("volume", 4000, "deployment volume (accelerators)")
		speedups = flag.String("speedups", "1.5,2,4,10,100", "comma-separated speedups for the break-even table")
	)
	flag.Parse()

	p := fast.DefaultROI()
	fmt.Printf("cost model: unit TCO $%.0f (capex $%.0f + %.1fkW × %g yr), NRE $%.1fM\n\n",
		p.UnitTCO(), p.AccelUnitCost, p.PowerKW, p.YearsDeployed, p.NRE()/1e6)

	if *speedup > 0 {
		r := p.ROI(*speedup, *volume)
		fmt.Printf("Perf/TCO %.2fx at %.0f units: ROI = %.2f (%s)\n",
			*speedup, *volume, r, verdict(r))
		fmt.Printf("break-even volume: %.0f units\n", p.BreakEvenVolume(*speedup))
		return
	}

	fmt.Printf("%-10s %12s %12s %12s %12s\n", "Perf/TCO", "1x ROI", "2x ROI", "4x ROI", "8x ROI")
	for _, tok := range strings.Split(*speedups, ",") {
		s, err := strconv.ParseFloat(strings.TrimSpace(tok), 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fast-roi: bad speedup %q\n", tok)
			os.Exit(2)
		}
		fmt.Printf("%-10.2f %12.0f %12.0f %12.0f %12.0f\n", s,
			p.VolumeForROI(s, 1), p.VolumeForROI(s, 2), p.VolumeForROI(s, 4), p.VolumeForROI(s, 8))
	}
}

func verdict(r float64) string {
	if r >= 1 {
		return "profitable"
	}
	return "below break-even"
}
