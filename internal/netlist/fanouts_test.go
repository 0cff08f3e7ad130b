package netlist_test

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/netlist"
	"repro/internal/soc"
)

// TestFanoutsConcurrentReaders makes the first Fanouts calls on a fresh
// netlist from 8 goroutines at once, on a random netlist and on a copy
// of the MPU's: every table a reader gets must equal a serial build,
// read on the reader's own goroutine. Each reader calls it several
// times, so that later calls read a table another reader stored. Run it
// under -race.
func TestFanoutsConcurrentReaders(t *testing.T) {
	mpu, err := soc.BuildMPU(soc.DefaultMPUConfig())
	if err != nil {
		t.Fatal(err)
	}
	random := netlist.RandomDAG(rand.New(rand.NewSource(9)), 400)
	for _, src := range []*netlist.Netlist{random, mpu.Netlist} {
		want := src.Clone().Fanouts()
		nl := src.Clone()
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for k := 0; k < 4; k++ {
					if fo := nl.Fanouts(); !slices.EqualFunc(fo, want, slices.Equal[[]netlist.NodeID]) {
						t.Errorf("%d nodes: reader %d, call %d: fanouts differ from a serial build", nl.NumNodes(), i, k)
					}
				}
			}()
		}
		close(start)
		wg.Wait()
	}
}
